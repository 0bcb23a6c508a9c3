import io
import json
import math
from itertools import combinations, product

import numpy as np
import pytest

from jointgibbs.errors import CapExceededError, ConfigError, WindowMismatchError
from jointgibbs.lattice import Box, SiteSet
from jointgibbs.model import BoundaryCondition, make_dilute, make_random_bond, make_rfim
from jointgibbs.potentials import (
    EXACT_INTEGRATION_CAP_BITS,
    ConstantEntry,
    NormalizingMeasure,
    PotentialTable,
    RegroupingScheme,
    TabulatedEntry,
    center_potential,
    check_alpha_normalization,
    check_martingale,
    epsilon_diagnostic,
    mobius_potential,
    partial_sum,
    partial_sum_expected,
    reconstruct_conditional,
    relative_energy,
    relative_energy_table,
    shell_cell_terms,
)
from jointgibbs.qkernel import QKernelContext

import oracles

PRODUCT = NormalizingMeasure.product()
VACUUM_PLUS = NormalizingMeasure.point_mass(fill=1)


def rfim_ctx(shape=(3,), J=0.45, h=0.35, nu=None):
    spec = make_rfim(J=J, h=h, nu=nu)
    return QKernelContext(spec, Box.from_shape(*shape))


def rand_eta(rng, sites, values=(-1, 1)):
    return {s: values[int(k)] for s, k in zip(sites, rng.integers(0, len(values), len(sites)))}


# ---------------------------------------------------------------------------
# relative energy
# ---------------------------------------------------------------------------


def test_relative_energy_empty_patch_is_zero():
    ctx = rfim_ctx()
    assert relative_energy(ctx, [], {}, PRODUCT) == 0.0
    assert relative_energy(ctx, [], {}, VACUUM_PLUS) == 0.0


def test_relative_energy_vanishes_at_the_vacuum():
    ctx = rfim_ctx()
    V = [(0,), (1,)]
    assert relative_energy(ctx, V, {s: 1 for s in V}, VACUUM_PLUS) == pytest.approx(
        0.0, abs=1e-14
    )


def test_relative_energy_zero_for_disorder_blind_model():
    ctx = rfim_ctx(J=0.4, h=0.0)
    rng = np.random.default_rng(3)
    for alpha in (PRODUCT, VACUUM_PLUS):
        for _ in range(3):
            V = [(0,), (2,)]
            eta = rand_eta(rng, V)
            assert relative_energy(ctx, V, eta, alpha) == pytest.approx(0.0, abs=1e-12)


def test_relative_energy_single_site_closed_form():
    spec = make_rfim(J=0.0, h=0.7, disorder_values=(0, 1))
    ctx = QKernelContext(spec, Box.from_shape(1))
    got = relative_energy(ctx, [(0,)], {(0,): 1}, PRODUCT)
    # log Z(1) minus the even mixture of log Z(0) and log Z(1)
    assert got == pytest.approx(0.5 * math.log(math.cosh(0.7)), abs=1e-12)


def test_relative_energy_integration_cap():
    # 21 sites of a two-value law are 21 bits, one past EXACT_INTEGRATION_CAP_BITS
    ctx = rfim_ctx((21,))
    with pytest.raises(CapExceededError):
        relative_energy(ctx, [(0,)], {(0,): 1}, PRODUCT)
    assert ctx.counts["requests"] == 0


def test_relative_energy_patch_outside_box():
    ctx = rfim_ctx((3,))
    with pytest.raises(ValueError):
        relative_energy(ctx, [(9,)], {(9,): 1}, PRODUCT)


# ---------------------------------------------------------------------------
# inclusion-exclusion transform
# ---------------------------------------------------------------------------


def random_set_function(rng, sites):
    vals = {(): 0.0}
    for k in range(1, len(sites) + 1):
        for A in combinations(sites, k):
            vals[A] = float(rng.normal())

    def energy(A):
        key = tuple(sorted(A.sites if isinstance(A, SiteSet) else A))
        return vals[key]

    return energy


def test_mobius_matches_signed_subset_sums():
    rng = np.random.default_rng(11)
    sites = Box.from_shape(4).sites()
    energy = random_set_function(rng, sites)
    table = mobius_potential(sites, energy)
    want = oracles.mobius_signed(sites, energy)
    for A, u in want.items():
        assert table.value(A) == pytest.approx(u, abs=1e-11)


def test_mobius_roundtrip_recovers_energy():
    rng = np.random.default_rng(13)
    sites = Box.from_shape(5).sites()
    energy = random_set_function(rng, sites)
    table = mobius_potential(sites, energy)
    for k in range(1, len(sites) + 1):
        for S in combinations(sites, k):
            total = 0.0
            for j in range(1, k + 1):
                for A in combinations(S, j):
                    total += table.value(A)
            assert total == pytest.approx(energy(SiteSet(S)), abs=1e-11)


def test_mobius_additive_energy_gives_pure_singletons():
    sites = Box.from_shape(4).sites()
    f = {s: 0.1 + 0.3 * i for i, s in enumerate(sites)}
    table = mobius_potential(sites, lambda A: sum(f[s] for s in A))
    for s in sites:
        assert table.value([s]) == pytest.approx(f[s], abs=1e-12)
    for k in range(2, 5):
        for A in combinations(sites, k):
            assert table.value(A) == pytest.approx(0.0, abs=1e-12)


def test_mobius_tabulated_agrees_with_numeric_slices():
    rng = np.random.default_rng(17)
    sites = Box.from_shape(3).sites()
    values = (-1, 1)
    rows = {}

    def energy(A):
        # one value per pattern on A, the first site's digit fastest
        if A.sites not in rows:
            rows[A.sites] = rng.normal(size=len(values) ** len(A))
        return rows[A.sites]

    def energy_at(A, eta):
        index = sum(values.index(eta[s]) * len(values) ** j for j, s in enumerate(A.sites))
        return float(energy(A)[index])

    table = mobius_potential(sites, energy, disorder_values=values)
    for etas in product(values, repeat=3):
        eta = dict(zip(sites, etas))
        plain = mobius_potential(sites, lambda A: energy_at(A, eta))
        for k in range(1, 4):
            for A in combinations(sites, k):
                assert table.value(A, eta) == pytest.approx(
                    plain.value(A), abs=1e-11
                )


def test_mobius_window_cap():
    # one site past SUBSET_ENUMERATION_CAP; the energy is never called
    sites = Box.from_shape(25).sites()
    with pytest.raises(CapExceededError):
        mobius_potential(sites, lambda A: 0.0)


# ---------------------------------------------------------------------------
# relative-energy tables: roundtrip and normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [PRODUCT, VACUUM_PLUS], ids=["product", "vacuum"])
def test_relative_table_inverts_to_the_energy(alpha):
    ctx = rfim_ctx((3,), nu={-1: 0.3, 1: 0.7})
    table = relative_energy_table(ctx, alpha)
    rng = np.random.default_rng(19)
    sites = ctx.box.sites()
    for _ in range(3):
        eta = rand_eta(rng, sites)
        for k in range(1, 4):
            for S in combinations(sites, k):
                total = 0.0
                for j in range(1, k + 1):
                    for A in combinations(S, j):
                        total += table.value(A, eta)
                direct = relative_energy(ctx, S, {s: eta[s] for s in S}, alpha)
                assert total == pytest.approx(direct, abs=1e-11)


@pytest.mark.parametrize("alpha", [PRODUCT, VACUUM_PLUS], ids=["product", "vacuum"])
def test_relative_table_is_alpha_normalized(alpha):
    ctx = rfim_ctx((3,), nu={-1: 0.3, 1: 0.7})
    table = relative_energy_table(ctx, alpha)
    worst = check_alpha_normalization(table, alpha, law=ctx.spec.nu)
    assert worst <= 1e-10


def test_alpha_normalization_flags_constants():
    table = PotentialTable()
    table.set([(0,)], ConstantEntry(0.3))
    assert check_alpha_normalization(table, PRODUCT, law={-1: 0.5, 1: 0.5}) == pytest.approx(
        0.3
    )


def test_alpha_normalization_reports_a_planted_entry():
    ctx = rfim_ctx((3,))
    table = relative_energy_table(ctx, PRODUCT)
    # pattern index d0 + 2 d1: site (0,)'s averages are 0.15 and 0.35 at the
    # two values of site (1,); at the vacuum (+1) the entry reads 0.2 to 0.4
    table.set([(0,), (1,)], TabulatedEntry([0.1, 0.2, 0.3, 0.4], (-1, 1)))
    law = {-1: 0.5, 1: 0.5}
    assert check_alpha_normalization(table, PRODUCT, law=law) == pytest.approx(0.35, abs=1e-15)
    assert check_alpha_normalization(table, VACUUM_PLUS) == 0.4


@pytest.mark.parametrize("alpha", [PRODUCT, VACUUM_PLUS], ids=["product", "vacuum"])
def test_alpha_normalization_equals_the_per_pattern_loop(alpha):
    for shape, nu in (((4,), {-1: 0.3, 1: 0.7}), ((2, 2), None)):
        ctx = rfim_ctx(shape, nu=nu)
        table = relative_energy_table(ctx, alpha)
        table.set([(0,) * len(shape)], TabulatedEntry([0.25, -0.5], (-1, 1)))
        law = ctx.spec.nu
        assert check_alpha_normalization(table, alpha, law=law) == (
            oracles.alpha_normalization_loop(table, alpha, law)
        )


def test_alpha_normalization_reads_values_the_law_does_not_charge():
    # nu(0) = 0: averaging site (0,) must still see site (1,) at 0
    spec = make_rfim(J=0.45, h=0.35, disorder_values=(-1, 0, 1), nu={-1: 0.3, 0: 0.0, 1: 0.7})
    ctx = QKernelContext(spec, Box.from_shape(3))
    table = relative_energy_table(ctx, PRODUCT)
    assert check_alpha_normalization(table, PRODUCT, law=spec.nu) <= 1e-10
    pair = [(0,), (1,)]
    values = table.entry(pair).values.copy()
    values[3:6] += 0.25  # pattern index d0 + 3 d1, and digit 1 of site (1,) is 0
    table.set(pair, TabulatedEntry(values, spec.disorder_values))
    worst = check_alpha_normalization(table, PRODUCT, law=spec.nu)
    assert worst == pytest.approx(0.25, abs=1e-10)
    assert worst == oracles.alpha_normalization_loop(table, PRODUCT, spec.nu)


# ---------------------------------------------------------------------------
# the dense table against the per-pattern route
# ---------------------------------------------------------------------------

BOND = make_random_bond([[0.1, 0.9], [0.5]], d=2)
PARITY_CASES = {
    "rfim-free-product": (make_rfim(0.3, 0.5), (4,), None, None, PRODUCT),
    "rfim-fixed-vacuum": (make_rfim(0.3, 0.5), (4,), 1, None, NormalizingMeasure.point_mass(-1)),
    "rfim-window-fixed-product": (
        make_rfim(0.45, 0.35, nu={-1: 0.3, 1: 0.7}), (5,), -1, [(1,), (2,), (3,)], PRODUCT
    ),
    "rfim-zero-weight-product": (
        make_rfim(0.4, 0.6, disorder_values=(-1, 0, 1), nu={-1: 0.3, 0: 0.0, 1: 0.7}),
        (3,), None, None, PRODUCT,
    ),
    "ladder-free-product": (BOND, (2, 2), None, None, PRODUCT),
    "ladder-fixed-vacuum": (BOND, (2, 2), 1, None, NormalizingMeasure.point_mass((0.9, 0.5))),
    "dilute-free-vacuum": (make_dilute(0.8, 0.35), (2, 2), None, None,
                           NormalizingMeasure.point_mass(0)),
    "dilute-fixed-product": (make_dilute(0.8, 0.35), (3,), 1, None, PRODUCT),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_relative_table_equals_the_per_pattern_route(case):
    spec, shape, fill, window, alpha = PARITY_CASES[case]
    bc = BoundaryCondition.free() if fill is None else BoundaryCondition.fixed(fill=fill)
    box = Box.from_shape(*shape)
    ctx = QKernelContext(spec, box, bc)
    table = relative_energy_table(ctx, alpha, window=window)
    want = oracles.subset_relative_energy_table(
        QKernelContext(spec, box, bc), alpha, window or box.sites()
    )
    assert {A.sites for A in table.support()} == set(want)
    for A, entry in table.items():
        assert entry.values.tolist() == want[A.sites], A.sites
    # one per-code read of every code the table needs, none batched
    k = len(spec.disorder_values)
    codes = ctx.n_codes if alpha.is_product else k ** len(window or box.sites())
    assert ctx.counts["swept"] == codes
    assert ctx.counts["batched"] == 0
    assert ctx.counts["requests"] > codes


POINT_MASS_CASES = sorted(c for c in PARITY_CASES if not PARITY_CASES[c][4].is_product)


@pytest.mark.parametrize("case", POINT_MASS_CASES)
def test_point_mass_runs_the_product_route_bit_for_bit(case):
    spec, shape, fill, _, alpha = PARITY_CASES[case]
    bc = BoundaryCondition.free() if fill is None else BoundaryCondition.fixed(fill=fill)
    box = Box.from_shape(*shape)
    ctx, ref = QKernelContext(spec, box, bc), QKernelContext(spec, box, bc)
    vac = alpha.vacuum_fill
    sites = box.sites()
    scheme = RegroupingScheme.shell(box)
    rng = np.random.default_rng(41)
    values = spec.disorder_values
    for _ in range(4):
        eta = {s: values[int(rng.integers(len(values)))] for s in ctx.eta_domain}
        kd = int(rng.integers(1, len(sites) + 1))
        delta = [sites[i] for i in sorted(rng.choice(len(sites), size=kd, replace=False))]
        V = [delta[i] for i in sorted(rng.choice(kd, size=int(rng.integers(1, kd + 1)),
                                                  replace=False))]
        eta_V = {s: eta[s] for s in V}
        assert relative_energy(ctx, V, eta_V, alpha) == oracles.vacuum_relative_energy(
            ref, V, eta_V, vac
        )
        assert check_martingale(ctx, V, delta, eta_V, alpha) == oracles.vacuum_martingale(
            ref, V, delta, eta_V, vac
        )
        assert partial_sum_expected(ctx, V, delta, eta, alpha) == oracles.vacuum_log_q(
            ref, V, delta, eta, vac
        )
    for x in sites:
        for m in range(1, scheme.max_m(x) + 1):
            want = oracles.vacuum_pair_brackets(
                ref, lambda j: scheme.cell(x, j).sites if j else [x], x, m, eta, vac
            )
            assert shell_cell_terms(ctx, scheme, x, m, eta, alpha) == want


def test_point_mass_relative_energy_has_no_integration_cap():
    # 25 domain sites: above EXACT_INTEGRATION_CAP_BITS for a two-point law
    ctx = rfim_ctx((5, 5))
    V = [(2, 2), (2, 3)]
    eta_V = {(2, 2): -1, (2, 3): 1}
    assert len(ctx.eta_domain) > EXACT_INTEGRATION_CAP_BITS
    with pytest.raises(CapExceededError):
        relative_energy(ctx, V, eta_V, PRODUCT)
    got = relative_energy(ctx, V, eta_V, VACUUM_PLUS)
    assert got == oracles.vacuum_relative_energy(rfim_ctx((5, 5)), V, eta_V, 1)


def test_epsilon_diagnostic_refuses_a_point_mass():
    ctx = rfim_ctx((4,))
    with pytest.raises(ConfigError):
        epsilon_diagnostic(ctx, (1,), [1], samples=8, alpha=VACUUM_PLUS)
    assert ctx.counts["requests"] == 0


def test_nested_differences_are_the_signed_subset_sums():
    rng = np.random.default_rng(23)
    sites = Box.from_shape(4).sites()
    energy = random_set_function(rng, sites)
    for A, u in oracles.mobius_signed(sites, energy).items():
        assert oracles.mobius_nested(A, energy) == pytest.approx(u, abs=1e-12)


@pytest.mark.parametrize(
    "shape,window,alpha",
    [
        ((25,), None, PRODUCT),  # SUBSET_ENUMERATION_CAP
        ((12,), None, VACUUM_PLUS),  # TABULATION_CAP_BITS
        ((21,), [(0,), (1,)], PRODUCT),  # EXACT_INTEGRATION_CAP_BITS
    ],
    ids=["window", "tabulation", "integration"],
)
def test_relative_table_caps_fire_before_any_read(shape, window, alpha):
    ctx = rfim_ctx(shape)
    with pytest.raises(CapExceededError):
        relative_energy_table(ctx, alpha, window=window)
    assert ctx.counts["requests"] == 0


def test_table_builds_each_site_set_once():
    table = PotentialTable(Box.from_shape(3))
    pair = SiteSet([(2,), (0,)])
    table.set(pair, ConstantEntry(0.5))
    table.set([(1,)], ConstantEntry(0.25))
    first = table.support()
    assert [A.sites for A in first] == [((0,), (2,)), ((1,),)]
    assert first[0] is pair
    assert all(a is b for a, b in zip(first, table.support()))
    assert all(a is b for a, (b, _) in zip(first, table.items()))
    table.set([(0,)], ConstantEntry(0.125))
    assert [A.sites for A in table.support()] == [((0,),), ((0,), (2,)), ((1,),)]


# ---------------------------------------------------------------------------
# martingale property of the relative energy
# ---------------------------------------------------------------------------


def test_martingale_trivial_when_delta_equals_v():
    ctx = rfim_ctx((3,))
    V = [(0,), (1,)]
    eta = {(0,): 1, (1,): -1}
    assert check_martingale(ctx, V, V, eta, PRODUCT) == pytest.approx(0.0, abs=1e-13)


def test_martingale_requires_nesting():
    ctx = rfim_ctx((3,))
    with pytest.raises(ValueError):
        check_martingale(ctx, [(0,), (1,)], [(1,)], {(0,): 1, (1,): 1}, PRODUCT)


@pytest.mark.parametrize("alpha", [PRODUCT, VACUUM_PLUS], ids=["product", "vacuum"])
def test_martingale_residuals_vanish_rfim(alpha):
    ctx = rfim_ctx((4,), nu={-1: 0.4, 1: 0.6})
    sites = ctx.box.sites()
    rng = np.random.default_rng(23)
    for _ in range(6):
        kd = int(rng.integers(1, 5))
        delta = [sites[i] for i in rng.choice(4, size=kd, replace=False)]
        kv = int(rng.integers(1, kd + 1))
        V = [delta[i] for i in rng.choice(kd, size=kv, replace=False)]
        eta = rand_eta(rng, V)
        res = check_martingale(ctx, V, delta, eta, alpha)
        assert res == pytest.approx(0.0, abs=1e-10)


def test_martingale_residuals_vanish_dilute():
    spec = make_dilute(J=0.8, p=0.35)
    ctx = QKernelContext(spec, Box.from_shape(2, 2))
    alpha = NormalizingMeasure.point_mass(fill=0)
    sites = ctx.box.sites()
    rng = np.random.default_rng(29)
    for _ in range(6):
        kd = int(rng.integers(1, 5))
        delta = [sites[i] for i in rng.choice(4, size=kd, replace=False)]
        kv = int(rng.integers(1, kd + 1))
        V = [delta[i] for i in rng.choice(kd, size=kv, replace=False)]
        eta = rand_eta(rng, V, values=(0, 1))
        res = check_martingale(ctx, V, delta, eta, alpha)
        assert res == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------


def test_partial_sum_of_empty_patch():
    table = PotentialTable()
    assert partial_sum(table, [], [(0,)]) == 0.0


def test_partial_sum_full_window_telescopes():
    ctx = rfim_ctx((3,), nu={-1: 0.3, 1: 0.7})
    table = relative_energy_table(ctx, PRODUCT)
    sites = ctx.box.sites()
    rng = np.random.default_rng(31)
    eta = rand_eta(rng, sites)
    V = [(1,)]
    got = partial_sum(table, V, sites, eta)
    e_all = relative_energy(ctx, sites, eta, PRODUCT)
    rest = [(0,), (2,)]
    e_rest = relative_energy(ctx, rest, {s: eta[s] for s in rest}, PRODUCT)
    assert got == pytest.approx(e_all - e_rest, abs=1e-11)


@pytest.mark.parametrize("alpha", [PRODUCT, VACUUM_PLUS], ids=["product", "vacuum"])
def test_partial_sum_matches_expectation_route(alpha):
    ctx = rfim_ctx((3,), nu={-1: 0.3, 1: 0.7})
    table = relative_energy_table(ctx, alpha)
    sites = ctx.box.sites()
    rng = np.random.default_rng(37)
    eta = rand_eta(rng, sites)
    V = [(1,)]
    others = [(0,), (2,)]
    for k in range(3):
        for extra in combinations(others, k):
            delta = list(V) + list(extra)
            lhs = partial_sum(table, V, delta, eta)
            rhs = partial_sum_expected(ctx, V, delta, eta, alpha)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_partial_sum_rejects_regions_outside_window():
    ctx = rfim_ctx((3,))
    table = relative_energy_table(ctx, PRODUCT)
    with pytest.raises(WindowMismatchError):
        partial_sum(table, [(0,)], [(0,), (7,)], {(0,): 1, (7,): 1})


@pytest.mark.parametrize("shape", [(8,), (2, 2)], ids=["1x8", "2x2"])
def test_partial_sum_equals_the_entry_loop(shape):
    # the gather adds the entries in support order from 0.0, as the loop does
    ctx = rfim_ctx(shape, nu={-1: 0.3, 1: 0.7})
    sites = list(ctx.box.sites())
    product_table = relative_energy_table(ctx, PRODUCT)
    mixed = relative_energy_table(ctx, VACUUM_PLUS)
    # constants, and an entry over the alphabet in the other order
    mixed.set(sites[:1], ConstantEntry(0.25))
    mixed.set(sites[1:3], TabulatedEntry([0.5, -1.0, 2.0, 0.125], (1, -1)))
    tables = [product_table, mixed, center_potential(product_table, ctx.spec.nu)]
    rng = np.random.default_rng(71)
    for table in tables:
        for _ in range(150):
            delta = [s for s in sites if rng.random() < 0.7] or sites[:1]
            V = [s for s in sites if rng.random() < 0.3] or [sites[-1]]
            eta = rand_eta(rng, sites)
            assert partial_sum(table, V, delta, eta) == oracles.partial_sum_loop(
                table, V, delta, eta
            )
    # a set after a partial sum is read by the next one
    V, eta = sites[:2], {s: 1 for s in sites}
    before = partial_sum(mixed, V, sites, eta)
    mixed.set(sites[:2], ConstantEntry(1e3))
    assert partial_sum(mixed, V, sites, eta) == oracles.partial_sum_loop(mixed, V, sites, eta)
    assert partial_sum(mixed, V, sites, eta) != before
    with pytest.raises(ConfigError, match="no eta given"):
        partial_sum(product_table, V, sites)
    constants = PotentialTable(sites)
    constants.set(sites[:2], ConstantEntry(0.5))
    assert partial_sum(constants, V, sites) == 0.5


# ---------------------------------------------------------------------------
# reconstruction of the joint conditional
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [PRODUCT, VACUUM_PLUS], ids=["product", "vacuum"])
def test_reconstruction_matches_direct_conditional(alpha):
    ctx = rfim_ctx((2, 2), nu={-1: 0.3, 1: 0.7})
    table = relative_energy_table(ctx, alpha)
    sites = ctx.box.sites()
    V = [(0, 0)]
    rest = [s for s in sites if s != (0, 0)]
    rng = np.random.default_rng(41)
    for _ in range(4):
        sigma_rest = rand_eta(rng, rest)
        eta_rest = rand_eta(rng, rest)
        direct = ctx.joint_conditional(V, sigma_rest, eta_rest)
        rebuilt = reconstruct_conditional(
            ctx, table, V, sites, sigma_rest, eta_rest
        )
        for key, p in direct.items():
            assert rebuilt[key] == pytest.approx(p, abs=1e-10)


def test_reconstruction_matches_direct_conditional_dilute():
    spec = make_dilute(J=0.8, p=0.35)
    ctx = QKernelContext(spec, Box.from_shape(2, 2))
    alpha = NormalizingMeasure.point_mass(fill=0)
    table = relative_energy_table(ctx, alpha)
    sites = ctx.box.sites()
    V = [(1, 1)]
    rest = [s for s in sites if s != (1, 1)]
    rng = np.random.default_rng(43)
    for _ in range(4):
        sigma_rest = rand_eta(rng, rest)
        eta_rest = rand_eta(rng, rest, values=(0, 1))
        direct = ctx.joint_conditional(V, sigma_rest, eta_rest)
        rebuilt = reconstruct_conditional(ctx, table, V, sites, sigma_rest, eta_rest)
        for key, p in direct.items():
            assert rebuilt[key] == pytest.approx(p, abs=1e-10)


# ---------------------------------------------------------------------------
# centering
# ---------------------------------------------------------------------------


def test_center_zeroes_constant_entries():
    table = PotentialTable()
    table.set([(0,)], ConstantEntry(1.4))
    out = center_potential(table, {-1: 0.5, 1: 0.5})
    assert out.value([(0,)]) == 0.0


def test_center_exact_removes_the_mean():
    ctx = rfim_ctx((3,), nu={-1: 0.3, 1: 0.7})
    table = relative_energy_table(ctx, VACUUM_PLUS)
    law = {-1: 0.3, 1: 0.7}
    out = center_potential(table, law)
    for A, entry in out.items():
        key = A.sites
        mean = 0.0
        for combo in product((-1, 1), repeat=len(key)):
            w = math.prod(law[v] for v in combo)
            mean += w * entry.value(key, dict(zip(key, combo)))
        assert mean == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "alpha,law",
    [
        (PRODUCT, {-1: 0.3, 1: 0.7}),
        (VACUUM_PLUS, {-1: 0.3, 1: 0.7}),
        # a zero-weight value drops out of the centered alphabet
        (PRODUCT, {1: 0.6, -1: 0.4, 0: 0.0}),
    ],
    ids=["product", "vacuum", "zero-weight"],
)
def test_center_equals_the_per_pattern_loop(alpha, law):
    spec = make_rfim(J=0.45, h=0.35, disorder_values=tuple(sorted(law)), nu=law)
    ctx = QKernelContext(spec, Box.from_shape(5))
    table = relative_energy_table(ctx, alpha)
    out = center_potential(table, spec.nu)
    want = oracles.center_potential_loop(table, spec.nu)
    assert sorted(A.sites for A, _ in out.items()) == sorted(want)
    for A, entry in out.items():
        if want[A.sites] is None:
            assert entry.v == 0.0
            continue
        values, alphabet = want[A.sites]
        assert entry.alphabet == alphabet
        assert entry.values.tolist() == values


def test_epsilon_diagnostic_does_not_depend_on_the_alphabet_order():
    # same law, same stream, same log Z per configuration: only the disorder
    # codes differ, through the alphabet's order and an undrawn value
    law = {-1: 0.35, 1: 0.65}
    runs = []
    for alphabet in ((-1, 1), (1, 0, -1)):
        ctx = QKernelContext(make_rfim(0.3, 0.5, disorder_values=alphabet, nu=law),
                             Box.from_shape(6))
        runs.append(epsilon_diagnostic(ctx, (2,), (1, 2), samples=32, seed=4, batches=8))
    assert runs[0].epsilon == runs[1].epsilon
    assert runs[0].stderr == runs[1].stderr
    assert min(runs[0].epsilon) > 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_table_json_roundtrip():
    box = Box.from_shape(2, 2)
    table = PotentialTable(box, alpha="product", meta={"note": "t"})
    table.set([(0, 0)], ConstantEntry(0.25))
    table.set([(0, 0), (0, 1)], TabulatedEntry([0.1, -0.2, 0.3, -0.4], (-1, 1)))
    buf = io.StringIO()
    table.dump(buf)
    buf.seek(0)
    back = PotentialTable.load(buf)
    assert back.alpha == "product"
    assert back.meta["note"] == "t"
    assert back.window_sites == table.window_sites
    eta = {(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): 1}
    for A, _ in table.items():
        assert back.value(A, eta) == pytest.approx(table.value(A, eta), abs=1e-14)


def test_table_with_a_coefficient_form_entry_is_refused():
    # symbolic coefficient forms are not a table entry kind; no command
    # writes them, and loading one is a config error, not a silent zero
    blob = {
        "alpha": "vacuum:0",
        "entries": [{"sites": [[0], [1]],
                     "coeff_form": {"kind": "occupied_product", "coeff": 2.0}}],
    }
    with pytest.raises(ConfigError, match="unknown potential entry"):
        PotentialTable.load(io.StringIO(json.dumps(blob)))


def test_table_set_outside_window_rejected():
    table = PotentialTable(Box.from_shape(2))
    with pytest.raises(WindowMismatchError):
        table.set([(9,)], ConstantEntry(1.0))