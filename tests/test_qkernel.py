import math
from itertools import product

import numpy as np
import pytest

from jointgibbs import engine, qkernel
from jointgibbs.disorder import c_xy, cbar
from jointgibbs.errors import CapExceededError, ConfigError
from jointgibbs.lattice import Box, SiteSet
from jointgibbs.model import (
    BoundaryCondition,
    ModelSpec,
    make_dilute,
    make_random_bond,
    make_rfim,
)
from jointgibbs.potentials import epsilon_diagnostic
from jointgibbs.qkernel import QKernelContext
from jointgibbs.quenched import QuenchedEnsemble

import oracles


def rand_eta(rng, sites, values):
    return {s: values[int(k)] for s, k in zip(sites, rng.integers(0, len(values), len(sites)))}


def test_identical_disorder_gives_zero():
    spec = make_rfim(J=0.5, h=0.3)
    box = Box.from_shape(2, 2)
    ctx = QKernelContext(spec, box)
    sites = box.sites()
    e = {s: 1 for s in sites}
    assert ctx.log_q(sites[:2], e, e, {s: -1 for s in sites[2:]}) == 0.0


def test_window_must_lie_inside_box():
    ctx = QKernelContext(make_rfim(J=0.5, h=0.3), Box.from_shape(2, 2))
    with pytest.raises(ValueError):
        ctx.log_q([(9, 9)], {(9, 9): 1}, {(9, 9): -1}, {})


# under a fixed boundary the collar carries disorder, so a window there
# encodes fine and only the box check can refuse it
@pytest.mark.parametrize("window", [[(0,), (3,)], [(-1,)]], ids=["straddles", "collar"])
def test_flip_window_outside_the_box_is_refused(window):
    ctx = QKernelContext(make_rfim(J=0.5, h=0.3), Box.from_shape(3),
                         BoundaryCondition.fixed(fill=1))
    assert (-1,) in ctx.eta_domain
    eta = {s: 1 for s in ctx.eta_domain}
    with pytest.raises(ValueError, match="not inside"):
        ctx.log_q(window, eta, eta, eta)
    with pytest.raises(ValueError, match="not inside"):
        c_xy(ctx, window[0], window[-1], -1, -1, eta)


@pytest.mark.parametrize(
    "spec,bc",
    [
        (make_rfim(J=0.5, h=0.3, disorder_values=(-1, 0, 1)), None),
        (make_random_bond([[0.1, 0.9], [0.5]], d=2), BoundaryCondition.fixed(fill=1)),
    ],
    ids=["rfim3", "random_bond_fixed"],
)
def test_disorder_codes_round_trip(spec, bc):
    ctx = QKernelContext(spec, Box.from_shape(2, 2), bc)
    values = spec.disorder_values
    k = len(values)
    assert ctx.n_codes == k ** len(ctx.eta_domain)
    rng = np.random.default_rng(43)
    for c in [0, 1, k, ctx.n_codes - 1] + rng.integers(0, ctx.n_codes, 50).tolist():
        eta = ctx.eta_of(c)
        assert tuple(eta) == ctx.eta_domain
        assert ctx.code(eta) == c
    # first domain site least significant, digits index the alphabet
    first, second = ctx.eta_domain[:2]
    eta = {s: values[0] for s in ctx.eta_domain}
    eta[first] = values[1]
    assert ctx.code(eta) == 1
    eta[second] = values[k - 1]
    assert ctx.code(eta) == 1 + (k - 1) * k
    with pytest.raises(ValueError):
        ctx.eta_of(ctx.n_codes)
    with pytest.raises(ValueError):
        ctx.logz([-1])


def test_encoding_refuses_a_missing_site_or_a_foreign_value():
    spec = make_rfim(J=0.5, h=0.3)
    ctx = QKernelContext(spec, Box.from_shape(3))
    full = {s: 1 for s in ctx.eta_domain}
    gap = {s: 1 for s in ctx.eta_domain[1:]}
    foreign = {**full, (1,): 7}
    for eta, text in ((gap, "not assigned"), (foreign, "not in the alphabet")):
        with pytest.raises(ConfigError, match=text):
            ctx.code(eta)
        with pytest.raises(ConfigError, match=text):
            ctx.log_partition_at(eta)
    # a merged assignment names the site whichever side is at fault
    with pytest.raises(ConfigError, match="not assigned"):
        ctx.log_q([(0,)], {(0,): 1}, {(0,): -1}, {(2,): 1})
    with pytest.raises(ConfigError, match="not assigned"):
        ctx.log_q([(0,), (1,)], {(0,): 1}, {(0,): -1, (1,): 1}, full)
    with pytest.raises(ConfigError, match="not in the alphabet"):
        ctx.log_q([(0,)], {(0,): 7}, {(0,): -1}, full)
    assert not ctx._logz


def test_logz_reads_the_fresh_ensemble_bits():
    # the batch sums each code's terms in BLAS order, so it agrees with the
    # per-code sweep of a context-free ensemble to rounding, not bit for bit
    box = Box.from_shape(3, 2)
    rng = np.random.default_rng(47)
    for spec in (
        make_rfim(J=0.5, h=0.3),
        make_random_bond([[0.1, 0.9], [0.5]], d=2),
        make_dilute(J=0.8, p=0.4),
    ):
        for bc in (BoundaryCondition.free(), BoundaryCondition.fixed(fill=1)):
            ctx = QKernelContext(spec, box, bc)
            codes = rng.integers(0, ctx.n_codes, size=(4, 10))
            got = ctx.logz(codes)
            assert got.shape == codes.shape
            assert ctx.counts["swept"] == 0 < ctx.counts["batched"]
            for c, v in zip(codes.ravel().tolist(), got.ravel().tolist()):
                fresh = QuenchedEnsemble(spec, box, ctx.eta_of(c), bc).log_partition()
                assert v == pytest.approx(fresh, rel=0, abs=1e-12), (spec.name, bc.kind, c)
                assert v == ctx.log_partition_at(ctx.eta_of(c))


def _record_misses(monkeypatch, ctx):
    """Record each sweep of a miss (lookup depth, code) and each batch size."""
    depth = [0]
    swept, batched = [], []
    lookup = QKernelContext.log_partition_at
    sweep = QuenchedEnsemble.log_partition
    batch = engine.log_partition_rows

    def counted_lookup(self, eta):
        depth[0] += 1
        try:
            return lookup(self, eta)
        finally:
            depth[0] -= 1

    def recorded_sweep(self):
        swept.append((depth[0], ctx.code(self.eta)))
        return sweep(self)

    def recorded_batch(rows, count, picks):
        batched.append(count)
        return batch(rows, count, picks)

    monkeypatch.setattr(QKernelContext, "log_partition_at", counted_lookup)
    monkeypatch.setattr(QuenchedEnsemble, "log_partition", recorded_sweep)
    monkeypatch.setattr(engine, "log_partition_rows", recorded_batch)
    return swept, batched


@pytest.mark.parametrize("route", ["log_q", "logz", "cbar", "epsilon", "joint_conditional"])
def test_every_miss_is_swept_inside_log_partition_at_once_per_code(monkeypatch, route):
    # a single-code read sweeps its miss inside log_partition_at; array reads
    # on a box that fits one engine chunk evaluate theirs as batches; either
    # way each code is evaluated exactly once
    spec = make_rfim(J=0.5, h=0.3)
    box = Box.from_shape(6)
    ctx = QKernelContext(spec, box)
    swept, batched = _record_misses(monkeypatch, ctx)
    rng = np.random.default_rng(53)
    values = spec.disorder_values
    if route == "log_q":
        for _ in range(40):
            V = [box.sites()[int(i)] for i in rng.choice(6, size=2, replace=False)]
            rest = [s for s in ctx.eta_domain if s not in V]
            ctx.log_q(V, rand_eta(rng, V, values), rand_eta(rng, V, values),
                      rand_eta(rng, rest, values))
        assert swept
        assert all(d == 1 for d, _ in swept), "a miss was swept outside log_partition_at"
        codes = [c for _, c in swept]
        assert len(codes) == len(set(codes)) == len(ctx._logz)
        return
    if route == "logz":
        ctx.logz(rng.integers(0, ctx.n_codes, size=(3, 40)))
        ctx.logz(rng.integers(0, ctx.n_codes, size=50))
    elif route == "cbar":
        cbar(ctx, 2, samples=16, seed=3, batches=8)
    elif route == "joint_conditional":
        for _ in range(20):
            V = [box.sites()[int(i)] for i in rng.choice(6, size=2, replace=False)]
            rest = [s for s in ctx.eta_domain if s not in V]
            ctx.joint_conditional(V, rand_eta(rng, rest, spec.spin_values), rand_eta(rng, rest, values))
    else:
        epsilon_diagnostic(ctx, (2,), (1, 2), samples=16, seed=3, batches=8)
    assert not swept, "a miss on an enumerable box was swept one code at a time"
    assert ctx.counts["swept"] == 0
    assert sum(batched) == ctx.counts["batched"] == len(ctx._logz) > 0
    assert ctx.counts["batches"] == len(batched)
    assert ctx.counts["requests"] >= len(ctx._logz)


def _chain(term_at):
    """A custom two-state chain model whose terms ``term_at(A, sig, eta)`` gives."""
    return ModelSpec(
        name="chain", spin_values=(-1, 1), disorder_values=(-1, 1),
        nu={-1: 1.0, 1: 1.0}, range=1, generic_term=term_at,
        generic_shapes=lambda x: [SiteSet([x]), SiteSet([x, (x[0] + 1,)]), SiteSet([(x[0] - 1,), x])],
    )


def test_logz_sweeps_one_code_at_a_time_past_one_chunk(monkeypatch):
    # 2^17 spin configurations do not fit one engine chunk; only site 0
    # carries a field, so the row table (3 rows) would fit its cap
    def term(A, sig, eta):
        if len(A.sites) == 1:
            x = A.sites[0]
            return -0.3 * (eta[x] + 2) * sig[x] if x == (0,) else 0.0
        x, y = A.sites
        return -0.5 * sig[x] * sig[y]

    ctx = QKernelContext(_chain(term), Box.from_shape(17))
    swept, batched = _record_misses(monkeypatch, ctx)
    got = ctx.logz([5, 8, 5, 77])
    assert not batched
    assert all(d == 1 for d, _ in swept), "a miss was swept outside log_partition_at"
    assert [c for _, c in swept] == [5, 8, 77]
    assert ctx.counts == {"requests": 4, "swept": 3, "batched": 0, "batches": 0}
    assert got[0] == got[2] == ctx.log_partition_at(ctx.eta_of(5))
    # codes 5 and 77 agree at site 0, code 8 does not
    assert got[0] == got[3] != got[1]


def test_logz_sweeps_one_code_at_a_time_past_the_row_table_cap(monkeypatch):
    monkeypatch.setattr(qkernel, "ROW_TABLE_CAP", 12 * 2**6)
    ctx = QKernelContext(make_rfim(J=0.5, h=0.3), Box.from_shape(6))
    got = ctx.logz(np.arange(ctx.n_codes))  # 13 rows of 2^6 entries
    assert ctx.counts["batched"] == 0
    assert ctx.counts["swept"] == ctx.n_codes
    assert got[11] == QuenchedEnsemble(ctx.spec, ctx.box, ctx.eta_of(11)).log_partition()


def test_logz_sweeps_one_code_at_a_time_past_a_non_finite_table():
    # a one-hot product turns an infinite energy into NaN, so a context with
    # a hard constraint keeps the per-code sweep
    def term(A, sig, eta):
        if len(A.sites) == 1:
            x = A.sites[0]
            if x == (2,) and eta[x] == 1 and sig[x] == -1:
                return math.inf
            return -0.3 * eta[x] * sig[x]
        x, y = A.sites
        return -0.5 * sig[x] * sig[y]

    box = Box.from_shape(6)
    ctx = QKernelContext(_chain(term), box)
    got = ctx.logz(np.arange(ctx.n_codes))
    assert np.isfinite(got).all()
    assert ctx.counts["batched"] == 0
    assert ctx.counts["swept"] == ctx.n_codes
    for c in (0, 4, 37, 63):
        eta = ctx.eta_of(c)
        assert got[c] == ctx.log_partition_at(eta)
        assert got[c] == QuenchedEnsemble(ctx.spec, box, eta).log_partition()
    # the constraint bites: pinning the spin at (2,) changes log Z
    assert got[ctx.code({**ctx.eta_of(0), (2,): 1})] != got[0]


@pytest.mark.parametrize(
    "spec,box",
    [
        (make_rfim(J=0.5, h=0.3), Box.from_shape(2, 2)),
        (make_random_bond([-0.4, 0.4]), Box.from_shape(5)),
        (make_dilute(J=0.8, p=0.4), Box.from_shape(2, 2)),
    ],
    ids=["rfim", "random_bond", "dilute"],
)
def test_q_properties_hold(spec, box):
    report = QKernelContext(spec, box).check_q_properties(trials=25, seed=3)
    assert report["pass"], report
    names = {p["property"] for p in report["properties"]}
    assert names == {"antisymmetry", "restriction", "chain_rule"}
    for p in report["properties"]:
        assert p["max_abs_violation"] <= 1e-10


def test_q_properties_flag_a_log_q_that_misplaces_its_patches(monkeypatch):
    ctx = QKernelContext(make_rfim(J=0.5, h=0.3), Box.from_shape(4))
    right = ctx.patch_codes
    # log_q with its two patches swapped: restriction reads its sub-window
    # side through log_q and must catch it, with a witness
    monkeypatch.setattr(ctx, "patch_codes", lambda V, patches, rest: right(V, patches[::-1], rest))
    report = ctx.check_q_properties(trials=20, seed=2, tol=1e-10)
    worst = {p["property"]: p for p in report["properties"]}
    assert not report["pass"]
    assert worst["antisymmetry"]["max_abs_violation"] == 0.0
    restriction = worst["restriction"]
    assert restriction["max_abs_violation"] > 1e-3
    witness = restriction["witness"]
    assert list(witness) == ["window", "sub_window", "eta1", "eta2"]
    assert len(witness["eta1"]) == len(witness["eta2"]) == len(witness["window"])


def test_q_properties_with_fixed_boundary():
    spec = make_rfim(J=0.5, h=0.3)
    bc = BoundaryCondition.fixed(fill=1)
    report = QKernelContext(spec, Box.from_shape(3), bc).check_q_properties(
        trials=20, seed=5
    )
    assert report["pass"], report
    assert report["boundary"] == "fixed"


@pytest.mark.parametrize(
    "spec,box",
    [
        (make_rfim(J=0.45, h=0.2), Box.from_shape(2, 2)),
        (make_random_bond([-0.4, 0.4]), Box.from_shape(4)),
        (make_dilute(J=0.8, p=0.4), Box.from_shape(3)),
    ],
    ids=["rfim", "random_bond", "dilute"],
)
def test_expectation_route_agrees(spec, box):
    ctx = QKernelContext(spec, box)
    rng = np.random.default_rng(23)
    sites = box.sites()
    values = spec.disorder_values
    for _ in range(6):
        k = int(rng.integers(1, len(sites)))
        V = [sites[i] for i in rng.choice(len(sites), size=k, replace=False)]
        rest = [s for s in ctx.eta_domain if s not in set(V)]
        e1 = rand_eta(rng, V, values)
        e2 = rand_eta(rng, V, values)
        er = rand_eta(rng, rest, values)
        direct = ctx.log_q(V, e1, e2, er)
        via = ctx.log_q_via_expectation(V, e1, e2, er)
        assert via == pytest.approx(direct, abs=1e-10)


def test_dilute_flip_of_isolated_site_is_silent():
    # toggling occupation has no effect while every neighbour is empty
    spec = make_dilute(J=1.1, p=0.5)
    ctx = QKernelContext(spec, Box.from_shape(3))
    V = [(1,)]
    rest = {(0,): 0, (2,): 0}
    assert ctx.log_q(V, {(1,): 1}, {(1,): 0}, rest) == pytest.approx(0.0, abs=1e-14)
    # an occupied neighbour makes the flip visible
    rest = {(0,): 1, (2,): 0}
    assert abs(ctx.log_q(V, {(1,): 1}, {(1,): 0}, rest)) > 1e-3


def test_rfim_single_site_closed_form():
    spec = make_rfim(J=0.4, h=0.7, disorder_values=(0, 1))
    ctx = QKernelContext(spec, Box.from_shape(1))
    got = ctx.log_q([(0,)], {(0,): 1}, {(0,): 0}, {})
    assert got == pytest.approx(math.log(math.cosh(0.7)), abs=1e-12)


def test_joint_conditional_factorizes_without_coupling():
    spec = make_rfim(J=0.0, h=0.6, nu={-1: 0.25, 1: 0.75})
    box = Box.from_shape(2)
    ctx = QKernelContext(spec, box)
    table = ctx.joint_conditional(box.sites(), {}, {})

    def single(s, e):
        return spec.nu[e] * math.exp(0.6 * e * s) / (2 * math.cosh(0.6 * e))

    norm = sum(single(s, e) for s in (-1, 1) for e in (-1, 1))
    for (spins, etas), p in table.items():
        want = math.prod(single(s, e) / norm for s, e in zip(spins, etas))
        assert p == pytest.approx(want, abs=1e-12)


def rfim_ctx_and_brute(J, h, box, nu=None):
    spec = make_rfim(J=J, h=h, nu=nu)
    ctx = QKernelContext(spec, box)
    sites = box.sites()
    joint = oracles.brute_joint_table(
        sites,
        spec.spin_values,
        spec.disorder_values,
        spec.nu,
        lambda sig, eta: oracles.rfim_energy(J, h, sites, eta)(sig),
    )
    return spec, ctx, sites, joint


def test_joint_conditional_matches_brute_rfim():
    box = Box.from_shape(2, 2)
    spec, ctx, sites, joint = rfim_ctx_and_brute(0.45, 0.2, box, nu={-1: 0.3, 1: 0.7})
    V = [(0, 0)]
    buckets = oracles.brute_conditional(joint, sites, V)
    rest_sites = [s for s in sites if s != (0, 0)]
    rng = np.random.default_rng(29)
    for _ in range(4):
        spins = tuple(int(v) for v in rng.choice([-1, 1], len(rest_sites)))
        etas = tuple(int(v) for v in rng.choice([-1, 1], len(rest_sites)))
        got = ctx.joint_conditional(
            V, dict(zip(rest_sites, spins)), dict(zip(rest_sites, etas))
        )
        want = buckets[(spins, etas)]
        for key, p in want.items():
            assert got[key] == pytest.approx(p, abs=1e-12)


def test_joint_conditional_matches_brute_dilute():
    J, p = 0.9, 0.35
    spec = make_dilute(J=J, p=p)
    box = Box.from_shape(3)
    sites = box.sites()
    ctx = QKernelContext(spec, box)
    joint = oracles.brute_joint_table(
        sites,
        spec.spin_values,
        spec.disorder_values,
        spec.nu,
        lambda sig, eta: oracles.dilute_energy(J, sites, eta)(sig),
    )
    V = [(1,)]
    buckets = oracles.brute_conditional(joint, sites, V)
    rest_sites = [(0,), (2,)]
    for spins in product((-1, 1), repeat=2):
        for etas in product((0, 1), repeat=2):
            got = ctx.joint_conditional(
                V, dict(zip(rest_sites, spins)), dict(zip(rest_sites, etas))
            )
            for key, prob in buckets[(spins, etas)].items():
                assert got[key] == pytest.approx(prob, abs=1e-12)


def test_joint_conditional_matches_brute_random_bond():
    spec = make_random_bond([-0.3, 0.3])
    box = Box.from_shape(3)
    sites = box.sites()
    ctx = QKernelContext(spec, box)
    joint = oracles.brute_joint_table(
        sites,
        spec.spin_values,
        spec.disorder_values,
        spec.nu,
        lambda sig, eta: oracles.random_bond_energy(sites, eta)(sig),
    )
    V = [(0,)]
    buckets = oracles.brute_conditional(joint, sites, V)
    rest_sites = [(1,), (2,)]
    for spins in product((-1, 1), repeat=2):
        for etas in product(spec.disorder_values, repeat=2):
            got = ctx.joint_conditional(
                V, dict(zip(rest_sites, spins)), dict(zip(rest_sites, etas))
            )
            for key, prob in buckets[(spins, etas)].items():
                assert got[key] == pytest.approx(prob, abs=1e-12)


def test_joint_conditional_with_fixed_boundary():
    J, h = 0.5, 0.3
    spec = make_rfim(J=J, h=h)
    box = Box.from_shape(2)
    sites = box.sites()
    collar = [(-1,), (2,)]
    bc = BoundaryCondition.fixed(fill=1)
    ctx = QKernelContext(spec, box, bc)
    frozen = {s: 1 for s in collar}

    def energy_of(sig, eta):
        eta_full = dict(eta)
        eta_full.update({s: 1 for s in collar})
        return oracles.rfim_energy(J, h, sites, eta_full, frozen=frozen)(sig)

    joint = oracles.brute_joint_table(
        sites, spec.spin_values, spec.disorder_values, spec.nu, energy_of
    )
    V = [(0,)]
    buckets = oracles.brute_conditional(joint, sites, V)
    for spin in (-1, 1):
        for eta in (-1, 1):
            got = ctx.joint_conditional(
                V, {(1,): spin}, {(1,): eta, (-1,): 1, (2,): 1}
            )
            for key, prob in buckets[((spin,), (eta,))].items():
                assert got[key] == pytest.approx(prob, abs=1e-12)


def test_pure_disorder_terms_are_a_gauge():
    # adding a spin-independent function of the local disorder to the
    # Hamiltonian leaves every joint conditional unchanged
    J, h = 0.45, 0.2
    base = make_rfim(J=J, h=h)
    tilt = {-1: 0.37, 1: -0.81}

    def term(A, sig, eta):
        if len(A.sites) == 1:
            x = A.sites[0]
            return -h * eta[x] * sig[x] + tilt[eta[x]]
        x, y = A.sites
        if sum(abs(a - b) for a, b in zip(x, y)) == 1:
            return -J * sig[x] * sig[y]
        return 0.0

    def shapes(x):
        out = [SiteSet([x])]
        for k in range(len(x)):
            for step in (-1, 1):
                y = tuple(c + step if i == k else c for i, c in enumerate(x))
                out.append(SiteSet([x, y]))
        return out

    gauged = ModelSpec(
        name="rfim-gauged",
        spin_values=(-1, 1),
        disorder_values=(-1, 1),
        nu={-1: 1.0, 1: 1.0},
        range=1,
        generic_term=term,
        generic_shapes=shapes,
    )
    box = Box.from_shape(3)
    sites = box.sites()
    a = QKernelContext(base, box)
    b = QKernelContext(gauged, box)
    V = [(1,)]
    rng = np.random.default_rng(31)
    for _ in range(4):
        spins = {s: int(rng.choice([-1, 1])) for s in sites if s != (1,)}
        etas = {s: int(rng.choice([-1, 1])) for s in sites if s != (1,)}
        ta = a.joint_conditional(V, spins, etas)
        tb = b.joint_conditional(V, spins, etas)
        for key in ta:
            assert tb[key] == pytest.approx(ta[key], abs=1e-12)


# the 2x2 block is a 4-cycle, where swapping any two disorder values is a
# graph automorphism that partition functions cannot see; the 2x3 window with
# a corner/edge pair breaks that degeneracy, so digit-order slips show up
@pytest.mark.parametrize(
    "shape,V",
    [((2, 2), [(0, 0), (1, 1)]), ((2, 3), [(0, 0), (0, 1)])],
)
def test_joint_conditional_all_matches_single_calls(shape, V):
    spec = make_rfim(J=0.45, h=0.2, nu={-1: 0.4, 1: 0.6})
    box = Box.from_shape(*shape)
    ctx = QKernelContext(spec, box)
    rest_spin_sites, rest_eta_sites, patches, table = ctx.joint_conditional_all(V)
    qs = len(spec.spin_values)
    qe = len(spec.disorder_values)
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            sigma_rest = {
                s: spec.spin_values[(i // qs**pos) % qs]
                for pos, s in enumerate(rest_spin_sites)
            }
            eta_rest = {
                s: spec.disorder_values[(j // qe**pos) % qe]
                for pos, s in enumerate(rest_eta_sites)
            }
            single = ctx.joint_conditional(V, sigma_rest, eta_rest)
            for k, patch in enumerate(patches):
                assert table[i, j, k] == pytest.approx(single[patch], abs=1e-12)


def test_joint_conditional_all_matches_brute_with_fixed_boundary():
    # frozen collar spins enter through the term tables; rows whose collar
    # disorder differs from the oracle's are other conditionings
    J, h = 0.5, 0.3
    spec = make_rfim(J=J, h=h, nu={-1: 0.35, 1: 0.65})
    box = Box.from_shape(3)
    sites = box.sites()
    collar = [(-1,), (3,)]
    ctx = QKernelContext(spec, box, BoundaryCondition.fixed(fill=-1))
    frozen = {s: -1 for s in collar}
    collar_eta = {(-1,): 1, (3,): -1}

    def energy_of(sig, eta):
        return oracles.rfim_energy(J, h, sites, {**eta, **collar_eta}, frozen=frozen)(sig)

    joint = oracles.brute_joint_table(
        sites, spec.spin_values, spec.disorder_values, spec.nu, energy_of
    )
    for V in ([(1,)], [(0,), (2,)]):
        rest_spin_sites, rest_eta_sites, patches, table = ctx.joint_conditional_all(V)
        assert set(collar) <= set(rest_eta_sites)
        buckets = oracles.brute_conditional(joint, sites, V)
        checked = 0
        for i, j in product(range(table.shape[0]), range(table.shape[1])):
            eta_rest = {
                s: spec.disorder_values[j // 2**pos % 2] for pos, s in enumerate(rest_eta_sites)
            }
            if any(eta_rest[s] != v for s, v in collar_eta.items()):
                continue
            spins = tuple(spec.spin_values[i // 2**pos % 2] for pos in range(len(rest_spin_sites)))
            etas = tuple(eta_rest[s] for s in rest_spin_sites)
            want = buckets[(spins, etas)]
            for k, patch in enumerate(patches):
                assert table[i, j, k] == pytest.approx(want[patch], abs=1e-12)
            checked += 1
        assert checked == 2 ** (2 * len(rest_spin_sites))


@pytest.mark.parametrize("V", [[(1,)], [(0,), (2,)]])
def test_zero_weight_disorder_value_gets_probability_zero(V):
    # a value the law does not charge must not reach log nu: its patches get
    # exactly 0, and the others match the model without that value
    box = Box.from_shape(3)
    wide = QKernelContext(make_rfim(J=0.4, h=0.6, disorder_values=(-1, 0, 1),
                                    nu={-1: 0.25, 0: 0.0, 1: 0.75}), box)
    narrow = QKernelContext(make_rfim(J=0.4, h=0.6, nu={-1: 0.25, 1: 0.75}), box)
    rest_spin_sites, rest_eta_sites, patches, table = wide.joint_conditional_all(V)
    _, _, narrow_patches, narrow_table = narrow.joint_conditional_all(V)
    at = {patch: k for k, patch in enumerate(patches)}
    zero = [k for k, (_, etas) in enumerate(patches) if 0 in etas]
    assert zero and (table[:, :, zero] == 0.0).all()
    # a narrow disorder row is the wide row with digit d -> 2 d (-1 -> 0, 1 -> 2)
    n = len(rest_eta_sites)
    rows = [sum(2 * (j // 2**pos % 2) * 3**pos for pos in range(n)) for j in range(2**n)]
    cols = [at[patch] for patch in narrow_patches]
    assert np.abs(table[:, rows][:, :, cols] - narrow_table).max() <= 1e-12

    rng = np.random.default_rng(61)
    for _ in range(6):
        sigma_rest = {s: int(rng.choice([-1, 1])) for s in rest_spin_sites}
        eta_rest = {s: int(rng.choice([-1, 1])) for s in rest_eta_sites}
        got = wide.joint_conditional(V, sigma_rest, eta_rest)
        want = narrow.joint_conditional(V, sigma_rest, eta_rest)
        for patch, p in got.items():
            assert p == (pytest.approx(want[patch], abs=1e-12) if 0 not in patch[1] else 0.0)


def test_conditioning_spin_outside_the_alphabet_is_refused():
    spec = make_rfim(J=0.3, h=0.1)
    box = Box.from_shape(3)
    ctx = QKernelContext(spec, box)
    eta_rest = {(0,): 1, (2,): -1}
    with pytest.raises(ConfigError, match="not in the alphabet"):
        ctx.joint_conditional([(1,)], {(0,): 1, (2,): 0}, eta_rest)
    with pytest.raises(ConfigError, match="missing"):
        ctx.joint_conditional([(1,)], {(0,): 1}, eta_rest)
    with pytest.raises(ConfigError):
        ctx.joint_conditional([(1,)], {(0,): 1, (2,): 1}, {(0,): 1})


def test_joint_conditional_window_cap():
    spec = make_rfim(J=0.3, h=0.1)
    box = Box.from_shape(5)
    ctx = QKernelContext(spec, box)
    with pytest.raises(CapExceededError):
        ctx.joint_conditional(box.sites(), {}, {})


@pytest.mark.parametrize("bc", [None, BoundaryCondition.fixed(fill=1)], ids=["free", "fixed"])
@pytest.mark.parametrize(
    "spec",
    [
        make_rfim(J=0.5, h=0.3),
        make_random_bond([[0.1, 0.9], [0.5]], d=2),
        make_dilute(J=0.8, p=0.4),
    ],
    ids=["rfim", "random_bond", "dilute"],
)
def test_term_memo_gives_the_fresh_ensemble_bits(spec, bc):
    # a warm context compiles each term from tables filled at other codes;
    # its log Z must be the one an ensemble built without the context gets
    box = Box.from_shape(3, 2)
    ctx = QKernelContext(spec, box, bc)
    rng = np.random.default_rng(41)
    values = spec.disorder_values
    for _ in range(12):
        ctx.log_partition_at(rand_eta(rng, ctx.eta_domain, values))
    terms = ctx._term_arrays()[0]
    assert len(terms) == len(ctx.term_sets)
    for _ in range(8):
        eta = rand_eta(rng, ctx.eta_domain, values)
        fresh = QuenchedEnsemble(spec, box, eta, bc)
        assert ctx.log_partition_at(eta) == fresh.log_partition()
    # the stacks, and the tables a compile picks from them, are read-only
    picked = ctx._ensemble_at(ctx.code(eta)).compile().term_tables
    for table in [stack[0] for _, stack in terms] + picked:
        with pytest.raises(ValueError):
            table[0] = 0.0


@pytest.mark.parametrize(
    "spec,shape,bc",
    [
        (make_rfim(J=0.5, h=0.3), (5, 5), None),
        (make_rfim(J=0.5, h=0.3), (3, 3), BoundaryCondition.fixed(fill=1)),
        (make_dilute(J=0.8, p=0.4), (2, 4), None),
        (make_random_bond([[0.1, 0.9], [0.5, -0.3]], d=2), (3, 3),
         BoundaryCondition.fixed(fill=-1)),
    ],
    ids=["rfim-5x5-free", "rfim-3x3-fixed", "dilute-2x4-free", "random_bond-3x3-fixed"],
)
def test_compile_by_code_gives_the_fresh_ensemble_bits(spec, shape, bc):
    # a miss picks each term's table from its stack by code; its log Z is the
    # one an ensemble built from the disorder map, with no context, gets
    box = Box.from_shape(*shape)
    ctx = QKernelContext(spec, box, bc)
    rng = np.random.default_rng(43)
    codes = rng.integers(0, ctx.n_codes, size=300).tolist()
    for c in codes:
        eta = ctx.eta_of(c)
        fresh = QuenchedEnsemble(spec, box, eta, bc).log_partition()
        assert ctx.log_partition_at(c) == fresh, c
        assert ctx.log_partition_at(eta) == fresh
    assert ctx.counts["swept"] == len(set(codes))
    # the ensemble at a code reads its disorder back as the code's map
    assert ctx._ensemble_at(codes[0]).eta == ctx.eta_of(codes[0])
    missing = ctx.eta_of(codes[0])
    del missing[ctx.eta_domain[-1]]
    for read in (ctx.log_partition_at, ctx.code):
        with pytest.raises(ConfigError, match="not assigned"):
            read(missing)
    with pytest.raises(ValueError, match="outside"):
        ctx.log_partition_at(ctx.n_codes)


def test_term_tables_stay_bounded_over_distinct_misses():
    # every miss picks from the stacks built once per context: the storage is
    # one table per term and local disorder pattern, whatever the code count
    spec = make_rfim(J=0.5, h=0.3)
    ctx = QKernelContext(spec, Box.from_shape(5, 5))
    k = len(spec.disorder_values)
    bound = sum(k ** len(A) for A in ctx.term_sets)
    codes = np.random.default_rng(29).choice(ctx.n_codes, size=200, replace=False).tolist()
    held = []
    for chunk in (codes[:100], codes[100:]):
        for c in chunk:
            ctx.log_partition_at(c)
        held.append(sum(len(stack) for _, stack in ctx._term_arrays()[0]))
    assert held[0] == held[1] <= bound
    assert ctx.counts["swept"] == len(ctx._logz) == 200
    assert engine._gather_index.cache_info().currsize == 1
