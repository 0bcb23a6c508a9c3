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
    for code in range(system.n_configs):
        c = code
        for i in range(system.n_sites):
            digits[i] = c % system.q
            c //= system.q
        logs.append(-system.energy(digits))
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
        assert a.energy(d) == pytest.approx(b.energy(d), abs=1e-14)


def chain_system(n, J=0.45, h=0.2, rng=None):
    coords = [(i,) for i in range(n)]
    sys_ = CompiledSystem(n, 2, site_coords=coords)
    spin = np.array([-1.0, 1.0])
    for i in range(n - 1):
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
        sys_ = chain_system(n, rng=rng)
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


def test_auto_backend_uses_transfer_for_long_chains():
    sys_ = chain_system(26)  # beyond the enumeration cap entirely
    val = log_partition(sys_, backend="auto")
    ref = log_partition_transfer(sys_, plan_transfer(sys_))
    assert val == pytest.approx(ref, abs=1e-12)


def test_transfer_refuses_wide_geometry():
    coords = [(x, y) for x in range(7) for y in range(7)]
    sys_ = CompiledSystem(49, 2, site_coords=coords)
    assert plan_transfer(sys_) is None
    with pytest.raises(ValueError):
        log_partition(sys_, backend="transfer")


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        log_partition(chain_system(4), backend="magic")


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