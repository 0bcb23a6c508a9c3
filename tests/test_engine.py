import math

import numpy as np
import pytest

import jointgibbs.engine as engine
from jointgibbs.engine import (
    CompiledSystem,
    ProductObservable,
    log_partition,
    log_partition_enumerate,
    log_partition_transfer,
    plan_transfer,
    sweep,
)
from jointgibbs.errors import CapExceededError
from jointgibbs.lattice import Box
from jointgibbs.model import BoundaryCondition, make_dilute, make_random_bond, make_rfim
from jointgibbs.quenched import QuenchedEnsemble

import oracles
from oracles import log_sum_exp


def random_system(rng, n=6, q=2, n_terms=9, coords=None):
    sys_ = CompiledSystem(n, q, site_coords=coords)
    for _ in range(n_terms):
        k = int(rng.integers(1, 4))
        sites = rng.choice(n, size=min(k, n), replace=False)
        sys_.add_term([int(s) for s in sites], rng.normal(size=q ** len(sites)))
    sys_.const += float(rng.normal())
    return sys_


def brute_sweep(system, observables=()):
    logs, obs_vals = [], []
    digits = [0] * system.n_sites
    for code in range(system.q**system.n_sites):
        c = code
        for i in range(system.n_sites):
            digits[i] = c % system.q
            c //= system.q
        logs.append(-oracles.compiled_energy(system, digits))
        row = []
        for obs in observables:
            f = 1.0
            for s, vals in zip(obs.sites, obs.values):
                f *= vals[digits[s]]
            row.append(f)
        obs_vals.append(row)
    logz = log_sum_exp(logs)
    weights = [math.exp(v - logz) for v in logs]
    means = [
        sum(w * row[k] for w, row in zip(weights, obs_vals))
        for k in range(len(observables))
    ]
    return logz, means


def test_numpy_sweep_matches_brute():
    rng = np.random.default_rng(1)
    for _ in range(5):
        sys_ = random_system(rng)
        obs = [
            ProductObservable.of([0, 3], [np.array([-1.0, 1.0])] * 2),
            ProductObservable.of([2], [np.array([0.0, 1.0])]),
        ]
        logz, means = sweep(sys_, obs)
        ref_logz, ref_means = brute_sweep(sys_, obs)
        assert logz == pytest.approx(ref_logz, abs=1e-12)
        assert means == pytest.approx(ref_means, abs=1e-12)


def test_numpy_sweep_rescales_across_chunks(monkeypatch):
    # shrink the chunk size so the sweep crosses many chunk boundaries, and
    # bias the top site so the ground state sits in the final chunk: every
    # later minimum must rescale the running sums
    monkeypatch.setattr(engine, "_NUMPY_CHUNK", 128)
    rng = np.random.default_rng(7)
    sys_ = random_system(rng, n=12, n_terms=16)
    sys_.add_term([11], np.array([0.0, -9.0]))
    obs = [ProductObservable.of([0, 11], [np.array([-1.0, 1.0])] * 2)]
    logz, means = sweep(sys_, obs)
    ref_logz, ref_means = brute_sweep(sys_, obs)
    assert logz == pytest.approx(ref_logz, abs=1e-11)
    assert means == pytest.approx(ref_means, abs=1e-11)


def test_sweep_index_is_kept_for_one_single_chunk_geometry(monkeypatch):
    monkeypatch.setattr(engine, "_last_index", [None, None])
    rng = np.random.default_rng(7)
    a = random_system(rng, n=10, n_terms=12)
    b = CompiledSystem(10, 2)  # the same geometry with other tables
    for sites, tab in zip(a.term_sites, a.term_tables):
        b.add_term(sites, rng.normal(size=tab.size))
    assert sweep(a)[0] == pytest.approx(brute_sweep(a)[0], abs=1e-11)
    index = engine._last_index[1]
    assert sweep(b)[0] == pytest.approx(brute_sweep(b)[0], abs=1e-11)
    assert engine._last_index[1] is index
    with pytest.raises(ValueError):
        index[0, 0] = 0
    # a sweep over several chunks builds its index per chunk and keeps none
    monkeypatch.setattr(engine, "_NUMPY_CHUNK", 128)
    engine._last_index[:] = [None, None]
    assert sweep(b)[0] == pytest.approx(brute_sweep(b)[0], abs=1e-11)
    assert engine._last_index == [None, None]


def test_log_partition_rows_matches_the_sweep():
    # 40 systems of 10 spins share a box: a constant term, a fixed pair and
    # three terms with two or three candidate tables each; a chunk of
    # 16 * 2^10 energies holds 16 systems, so the batch runs in three chunks
    rng = np.random.default_rng(61)
    q, n = 2, 10
    fixed = [((), np.array([0.7])), ((0, 9), rng.normal(size=4))]
    varying = [((1,), rng.normal(size=(2, 2))), ((2, 5), rng.normal(size=(3, 4))),
               ((3, 4, 8), rng.normal(size=(2, 8)))]
    rows = [sum(engine.spread_tables(q, n, sites, [t])[0] for sites, t in fixed)]
    first = []
    for sites, tables in varying:
        first.append(len(rows))
        rows.extend(engine.spread_tables(q, n, sites, list(tables)))
    rows = np.array(rows)
    choice = np.stack([rng.integers(0, len(t), size=40) for _, t in varying], axis=1)
    calls = []

    def picks(start, stop):
        calls.append((start, stop))
        return choice[start:stop] + np.array(first)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_NUMPY_CHUNK", 16 * 2**n)
        got = engine.log_partition_rows(rows, 40, picks)
    assert calls == [(0, 16), (16, 32), (32, 40)]
    for i in range(40):
        system = CompiledSystem(n, q)
        for sites, table in fixed:
            system.add_term(sites, table)
        for (sites, tables), c in zip(varying, choice[i]):
            system.add_term(sites, tables[c])
        assert got[i] == pytest.approx(log_partition_enumerate(system), rel=0, abs=1e-12)
    with pytest.raises(ValueError):
        engine.log_partition_rows(np.zeros((1, 2 * engine._NUMPY_CHUNK)), 1, picks)


def test_add_term_reorders_sites():
    # the same physical term entered with sites ascending and descending
    rng = np.random.default_rng(3)
    table = rng.normal(size=8)
    a = CompiledSystem(3, 2)
    a.add_term([0, 1, 2], table)
    b = CompiledSystem(3, 2)
    # descending order: digit roles permute, code = s0 + 2 s1 + 4 s2 becomes
    # code' with site 2 least significant
    perm = np.zeros(8)
    for code in range(8):
        d = [(code >> i) & 1 for i in range(3)]
        perm[d[2] + 2 * d[1] + 4 * d[0]] = table[code]
    b.add_term([2, 1, 0], perm)
    for code in range(8):
        d = [(code >> i) & 1 for i in range(3)]
        assert oracles.compiled_energy(a, d) == pytest.approx(
            oracles.compiled_energy(b, d), abs=1e-14
        )


def chain_system(n, J=0.45, h=0.2, rng=None, bonds=True):
    coords = [(i,) for i in range(n)]
    sys_ = CompiledSystem(n, 2, site_coords=coords)
    spin = np.array([-1.0, 1.0])
    for i in range(n - 1 if bonds else 0):
        j = J if rng is None else float(rng.normal(J, 0.2))
        tab = np.array([-j * spin[a] * spin[b] for b in (0, 1) for a in (0, 1)])
        sys_.add_term([i, i + 1], tab)
    for i in range(n):
        hh = h if rng is None else float(rng.normal(h, 0.3))
        sys_.add_term([i], -hh * spin)
    return sys_


def test_transfer_matrix_matches_enumeration_chains():
    rng = np.random.default_rng(4)
    for n in (2, 5, 9, 14):
        # two systems of one geometry, then other terms on the same columns:
        # the transfer index kept from the previous system must not leak
        for bonds in (True, True, False):
            sys_ = chain_system(n, rng=rng, bonds=bonds)
            plan = plan_transfer(sys_)
            assert plan is not None
            tm = log_partition_transfer(sys_, plan)
            ref = log_partition_enumerate(sys_)
            assert tm == pytest.approx(ref, rel=1e-10)


def test_transfer_matrix_matches_enumeration_strip():
    rng = np.random.default_rng(5)
    w, L = 3, 6
    coords = [(x, y) for x in range(L) for y in range(w)]
    idx = {c: i for i, c in enumerate(coords)}
    sys_ = CompiledSystem(len(coords), 2, site_coords=coords)
    spin = np.array([-1.0, 1.0])
    for (x, y) in coords:
        for dx, dy in ((1, 0), (0, 1)):
            t = (x + dx, y + dy)
            if t in idx:
                j = float(rng.normal(0.4, 0.2))
                tab = np.array([-j * spin[a] * spin[b] for b in (0, 1) for a in (0, 1)])
                sys_.add_term([idx[(x, y)], idx[t]], tab)
    tm = log_partition_transfer(sys_, plan_transfer(sys_))
    ref = log_partition_enumerate(sys_)
    assert tm == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("bc", [BoundaryCondition.free(), BoundaryCondition.fixed(fill=1)],
                         ids=["free", "fixed"])
@pytest.mark.parametrize(
    "spec",
    [make_rfim(J=0.5, h=0.3), make_dilute(J=0.8, p=0.4),
     make_random_bond([[0.1, 0.9], [0.5, -0.3]], d=2)],
    ids=["rfim", "dilute", "random_bond"],
)
def test_transfer_gather_equals_the_term_by_term_sweep(spec, bc):
    # each column's energies are one gather summed over its terms in term
    # order: the same floats as adding the terms one at a time from zero
    rng = np.random.default_rng(17)
    values = spec.disorder_values
    empty = 0
    for shape in ((9,), (3, 4), (5, 5), (2, 6)):
        if spec.name == "random_bond" and len(shape) == 1:
            continue  # its disorder is one coupling per axis: 2D only
        box = Box.from_shape(*shape)
        for _ in range(4):
            eta = {s: values[int(rng.integers(len(values)))] for s in box.expand(1).sites()}
            system = QuenchedEnsemble(spec, box, eta, bc).compile()
            plan = plan_transfer(system)
            assert plan is not None
            got = log_partition_transfer(system, plan)
            assert got == oracles.transfer_log_partition_termwise(system, plan)
        intra, _ = engine._gather_index(system.q, plan.columns, tuple(system.term_sites))
        empty += sum(len(index) == 0 for index in intra)
    if spec.name == "dilute" and bc.is_free:
        # the free chain's bonds all cross columns: every column gathers nothing
        assert empty > 0


def test_transfer_gather_equals_the_term_by_term_sweep_on_random_chains():
    rng = np.random.default_rng(19)
    for n in (2, 5, 9):
        for bonds in (True, False):
            system = chain_system(n, rng=rng, bonds=bonds)
            plan = plan_transfer(system)
            got = log_partition_transfer(system, plan)
            assert got == oracles.transfer_log_partition_termwise(system, plan)


def test_auto_backend_uses_transfer_for_long_chains():
    sys_ = chain_system(26)  # beyond the enumeration cap entirely
    val = log_partition(sys_)
    ref = log_partition_transfer(sys_, plan_transfer(sys_))
    assert val == pytest.approx(ref, abs=1e-12)


def test_transfer_refuses_wide_geometry():
    coords = [(x, y) for x in range(7) for y in range(7)]
    sys_ = CompiledSystem(49, 2, site_coords=coords)
    assert plan_transfer(sys_) is None


def test_enumeration_cap():
    sys_ = CompiledSystem(30, 2)
    with pytest.raises(CapExceededError):
        log_partition_enumerate(sys_)


def test_zero_site_system():
    sys_ = CompiledSystem(0, 2)
    sys_.const += 1.25
    logz, means = sweep(sys_)
    assert logz == pytest.approx(-1.25)
    assert means == []


def test_extended_adds_terms():
    base = chain_system(5)
    extra = CompiledSystem(5, 2)
    extra.add_term([2], np.array([0.0, 0.7]))
    ext = base.extended(extra)
    assert log_partition_enumerate(ext) != pytest.approx(
        log_partition_enumerate(base)
    )
    none = base.extended(CompiledSystem(5, 2))
    assert log_partition_enumerate(none) == pytest.approx(
        log_partition_enumerate(base), abs=1e-13
    )