import math
from itertools import combinations

import numpy as np
import pytest

from jointgibbs import potentials
from jointgibbs.errors import SchemeError
from jointgibbs.lattice import Box, SiteOrder, SiteSet
from jointgibbs.model import make_dilute, make_rfim
from jointgibbs.potentials import (
    ConstantEntry,
    NormalizingMeasure,
    PotentialTable,
    RegroupingScheme,
    class_value_via_energy,
    epsilon_diagnostic,
    pair_flip_bracket,
    partial_sum,
    regroup,
    relative_energy,
    relative_energy_table,
    shell_cell_terms,
    telescope_logq,
)
from jointgibbs.qkernel import QKernelContext

PRODUCT = NormalizingMeasure.product()


def identity_interval(window):
    return RegroupingScheme.interval(window, lambda k: k)


def rand_eta(rng, sites, values=(-1, 1)):
    return {s: values[int(k)] for s, k in zip(sites, rng.integers(0, len(values), len(sites)))}


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


def test_interval_cells_with_identity_radii():
    scheme = identity_interval(Box.from_shape(5))
    assert scheme.cell((1,), 1).sites == ((1,), (2,))
    assert scheme.cell((1,), 3).sites == ((1,), (2,), (3,), (4,))
    # clamped at the window end
    assert scheme.cell((3,), 5).sites == ((3,), (4,))


def test_interval_classify():
    scheme = identity_interval(Box.from_shape(5))
    assert scheme.classify([(0,), (3,)]) == ((0,), 3)
    assert scheme.classify([(2,)]) == ((2,), 1)
    assert scheme.classify([(1,), (2,)]) == ((1,), 1)


def test_interval_radii_must_cover_and_grow():
    window = Box.from_shape(4)
    with pytest.raises(SchemeError):
        RegroupingScheme.interval(window, lambda k: k - 1)
    with pytest.raises(SchemeError):
        RegroupingScheme.interval(window, lambda k: 5 if k == 1 else k)
    with pytest.raises(SchemeError):
        RegroupingScheme.interval(window, None)


def test_unknown_scheme_kind():
    with pytest.raises(SchemeError):
        RegroupingScheme("weird", Box.from_shape(3), SiteOrder.lexicographic())


def test_shell_cells_2d():
    scheme = RegroupingScheme.shell(Box.from_shape(3, 3))
    assert scheme.cell((0, 0), 1).sites == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert scheme.classify([(0, 0), (2, 1)]) == ((0, 0), 2)
    assert scheme.classify([(1, 1)]) == ((1, 1), 1)


def test_schemes_validate():
    identity_interval(Box.from_shape(5)).validate()
    RegroupingScheme.shell(Box.from_shape(3, 3)).validate()


def test_classify_rejects_bad_input():
    scheme = identity_interval(Box.from_shape(4))
    with pytest.raises(SchemeError):
        scheme.classify([])
    with pytest.raises(SchemeError):
        scheme.classify([(9,)])
    with pytest.raises(SchemeError):
        scheme.cell((9,), 1)


# ---------------------------------------------------------------------------
# regrouping numeric tables
# ---------------------------------------------------------------------------


def random_table(rng, sites):
    table = PotentialTable(sites)
    for k in range(1, len(sites) + 1):
        for A in combinations(sites, k):
            table.set(A, ConstantEntry(float(rng.normal())))
    return table


def test_regroup_moves_every_entry_once():
    rng = np.random.default_rng(3)
    sites = Box.from_shape(5).sites()
    table = random_table(rng, sites)
    scheme = identity_interval(sites)
    grouped = regroup(table, scheme)
    total = sum(table.value(A) for A in table.support())
    total_grouped = sum(grouped.value(A) for A in grouped.support())
    assert total_grouped == pytest.approx(total, abs=1e-11)
    # breakdown per class matches a hand classification
    for (x, m), v in grouped.class_values.items():
        manual = sum(
            table.value(A) for A in table.support() if scheme.classify(A) == (x, m)
        )
        assert v == pytest.approx(manual, abs=1e-12)
        assert grouped.class_cells[(x, m)].sites == scheme.cell(x, m).sites


def test_regroup_keeps_base_site_partial_sum():
    # sums of terms through the order-minimal site are preserved exactly;
    # a generic interior site is not
    rng = np.random.default_rng(5)
    sites = Box.from_shape(5).sites()
    table = random_table(rng, sites)
    for scheme in (identity_interval(sites), RegroupingScheme.shell(sites)):
        grouped = regroup(table, scheme)
        x0 = (0,)
        a = partial_sum(table, [x0], sites)
        b = partial_sum(grouped, [x0], sites)
        assert b == pytest.approx(a, abs=1e-11)
        mid = partial_sum(table, [(3,)], sites)
        mid_grouped = partial_sum(grouped, [(3,)], sites)
        assert abs(mid - mid_grouped) > 1e-6


# ---------------------------------------------------------------------------
# class values straight from energies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["interval", "shell"])
def test_class_value_via_energy_matches_regrouped_table(kind):
    ctx = QKernelContext(
        make_rfim(J=0.45, h=0.35, nu={-1: 0.3, 1: 0.7}), Box.from_shape(4)
    )
    table = relative_energy_table(ctx, PRODUCT)
    sites = ctx.box.sites()
    scheme = (
        identity_interval(sites) if kind == "interval" else RegroupingScheme.shell(sites)
    )
    rng = np.random.default_rng(13)
    eta = rand_eta(rng, sites)
    grouped = regroup(table, scheme, eta)

    def energy(S, eta_map):
        return relative_energy(ctx, S, eta_map, PRODUCT)

    for (x, m), v in grouped.class_values.items():
        direct = class_value_via_energy(scheme, x, m, energy, eta)
        assert direct == pytest.approx(v, abs=1e-10)


# ---------------------------------------------------------------------------
# telescoping the log-ratio
# ---------------------------------------------------------------------------


def test_telescope_terms_sum_to_the_full_ratio():
    ctx = QKernelContext(make_rfim(J=0.45, h=0.35), Box.from_shape(4))
    rng = np.random.default_rng(17)
    sites = ctx.box.sites()
    eta = rand_eta(rng, sites)
    eta_hat = rand_eta(rng, sites)
    V = [(0,), (2,)]
    delta = [(0,), (1,), (2,)]
    terms = telescope_logq(ctx, V, eta, eta_hat, delta)
    assert [s for s, _ in terms] == sorted(V)
    env = {(1,): eta[(1,)], (3,): eta_hat[(3,)]}
    full = ctx.log_q(
        V, {s: eta[s] for s in V}, {s: eta_hat[s] for s in V}, env
    )
    assert sum(t for _, t in terms) == pytest.approx(full, abs=1e-11)


def test_telescope_zero_when_nothing_flips():
    ctx = QKernelContext(make_rfim(J=0.45, h=0.35), Box.from_shape(3))
    eta = {s: 1 for s in ctx.box.sites()}
    for _, term in telescope_logq(ctx, [(0,), (1,)], eta, eta):
        assert term == 0.0


def test_telescope_single_site_is_the_plain_ratio():
    ctx = QKernelContext(make_rfim(J=0.45, h=0.35), Box.from_shape(3))
    eta = {(0,): 1, (1,): -1, (2,): 1}
    eta_hat = {(0,): -1, (1,): -1, (2,): 1}
    terms = telescope_logq(ctx, [(0,)], eta, eta_hat)
    assert len(terms) == 1
    want = ctx.log_q([(0,)], {(0,): 1}, {(0,): -1}, {(1,): -1, (2,): 1})
    assert terms[0][1] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# pair-flip second differences
# ---------------------------------------------------------------------------


def bracket_via_expectation(ctx, x, y, eta_pair, hat_pair, env):
    """The pair-flip bracket from three expectation-side ratios: the joint
    flip less the two single flips."""
    e_hat = {x: hat_pair[x], y: hat_pair[y]}

    def lq(e):
        return ctx.log_q_via_expectation([x, y], e, e_hat, env)

    return lq({x: eta_pair[x], y: eta_pair[y]}) - lq({**e_hat, x: eta_pair[x]}) - lq(
        {**e_hat, y: eta_pair[y]}
    )


def test_pair_flip_bracket_routes_agree():
    ctx = QKernelContext(make_rfim(J=0.45, h=0.35), Box.from_shape(4))
    rng = np.random.default_rng(19)
    sites = ctx.box.sites()
    for _ in range(4):
        i, j = rng.choice(4, size=2, replace=False)
        x, y = sites[int(i)], sites[int(j)]
        eta_pair = rand_eta(rng, [x, y])
        hat_pair = rand_eta(rng, [x, y])
        env = rand_eta(rng, [s for s in sites if s not in (x, y)])
        a = pair_flip_bracket(ctx, x, y, eta_pair, hat_pair, env)
        b = bracket_via_expectation(ctx, x, y, eta_pair, hat_pair, env)
        assert b == pytest.approx(a, abs=1e-10)


def test_pair_flip_bracket_routes_agree_dilute():
    ctx = QKernelContext(make_dilute(J=0.8, p=0.4), Box.from_shape(2, 2))
    x, y = (0, 0), (1, 1)
    eta_pair = {x: 1, y: 1}
    hat_pair = {x: 0, y: 0}
    env = {(0, 1): 1, (1, 0): 1}
    a = pair_flip_bracket(ctx, x, y, eta_pair, hat_pair, env)
    b = bracket_via_expectation(ctx, x, y, eta_pair, hat_pair, env)
    assert b == pytest.approx(a, abs=1e-10)
    assert abs(a) > 1e-4


def test_pair_flip_bracket_vanishes_when_sites_decouple():
    # without couplings log Z is additive over sites, so the second
    # difference cancels exactly
    ctx = QKernelContext(make_rfim(J=0.0, h=0.5), Box.from_shape(3))
    got = pair_flip_bracket(
        ctx, (0,), (2,), {(0,): 1, (2,): 1}, {(0,): -1, (2,): -1}, {(1,): 1}
    )
    assert got == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# shell-cell telescoping
# ---------------------------------------------------------------------------


def test_shell_cell_terms_sum_to_class_value():
    ctx = QKernelContext(
        make_rfim(J=0.45, h=0.35, nu={-1: 0.3, 1: 0.7}), Box.from_shape(4)
    )
    sites = ctx.box.sites()
    scheme = RegroupingScheme.shell(sites)
    rng = np.random.default_rng(23)
    eta = rand_eta(rng, sites)

    def energy(S, eta_map):
        return relative_energy(ctx, S, eta_map, PRODUCT)

    for x in [(0,), (1,)]:
        for m in (1, 2):
            terms = shell_cell_terms(ctx, scheme, x, m, eta, PRODUCT)
            want = class_value_via_energy(scheme, x, m, energy, eta)
            assert sum(t for _, t in terms) == pytest.approx(want, abs=1e-10)
            if m == 1:
                assert terms[0][0] == x


def test_shell_cell_terms_point_mass():
    ctx = QKernelContext(make_dilute(J=0.8, p=0.4), Box.from_shape(2, 2))
    alpha = NormalizingMeasure.point_mass(fill=0)
    sites = ctx.box.sites()
    scheme = RegroupingScheme.shell(sites)
    eta = {s: 1 for s in sites}

    def energy(S, eta_map):
        return relative_energy(ctx, S, eta_map, alpha)

    x = (0, 0)
    terms = shell_cell_terms(ctx, scheme, x, 1, eta, alpha)
    want = class_value_via_energy(scheme, x, 1, energy, eta)
    assert sum(t for _, t in terms) == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# truncation diagnostic
# ---------------------------------------------------------------------------


def test_epsilon_diagnostic_zero_when_sites_decouple():
    ctx = QKernelContext(make_rfim(J=0.0, h=0.5), Box.from_shape(5))
    diag = epsilon_diagnostic(ctx, (2,), (1, 2), samples=100, seed=3)
    assert diag.meta["exact_inner"] is True
    for e in diag.epsilon:
        assert e == pytest.approx(0.0, abs=1e-12)


def test_epsilon_diagnostic_decays_along_the_chain():
    ctx = QKernelContext(make_rfim(J=0.3, h=0.5), Box.from_shape(6))
    diag = epsilon_diagnostic(ctx, (2,), (1, 2, 3), samples=400, seed=1)
    assert diag.epsilon[0] > 1e-4
    for a, sa, b, sb in zip(
        diag.epsilon, diag.stderr, diag.epsilon[1:], diag.stderr[1:]
    ):
        assert b <= a + 2 * (sa + sb)
    assert list(diag.radii) == [1, 2, 3]
    assert diag.n_samples == 400


def test_epsilon_diagnostic_seed_reproducible():
    ctx = QKernelContext(make_rfim(J=0.3, h=0.5), Box.from_shape(4))
    a = epsilon_diagnostic(ctx, (1,), (1, 2), samples=80, seed=11)
    b = epsilon_diagnostic(ctx, (1,), (1, 2), samples=80, seed=11)
    assert a.epsilon == b.epsilon
    assert a.meta["seed"] == 11


def test_epsilon_diagnostic_sampled_inner_tracks_exact(monkeypatch):
    ctx = QKernelContext(make_rfim(J=0.3, h=0.5), Box.from_shape(8))
    exact = epsilon_diagnostic(ctx, (3,), (1, 2, 3), samples=400, seed=5)
    assert exact.meta["exact_inner"] is True
    # at 2 bits the 2^8 codes and the far sets of radii 1 and 2 are sampled
    monkeypatch.setattr(potentials, "EXACT_INNER_BITS", 2)
    a = epsilon_diagnostic(ctx, (3,), (1, 2, 3), samples=400, seed=5)
    b = epsilon_diagnostic(ctx, (3,), (1, 2, 3), samples=400, seed=5)
    assert a.meta["exact_inner"] is False
    assert a.epsilon == b.epsilon
    for got, err, want in zip(a.epsilon, a.stderr, exact.epsilon):
        assert abs(got - want) <= 4 * err
