import io
import math

import numpy as np
import pytest

from jointgibbs.disorder import (
    CorrelationEstimate,
    DisorderSampler,
    c_xy,
    cbar,
    decay_budget,
    representative_pair,
    write_correlation_csv,
)
from jointgibbs.errors import ConfigError
from jointgibbs.lattice import Box
from jointgibbs.model import make_dilute, make_random_bond, make_rfim
from jointgibbs.qkernel import QKernelContext

import oracles


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampler_reproducible_per_index():
    region = [(i,) for i in range(12)]
    sampler = DisorderSampler({-1: 0.5, 1: 0.5}, region, seed=42)
    a = sampler.sample(7)
    b = sampler.sample(7)
    assert a == b
    assert sampler.sample(7) == a
    c = sampler.sample(8)
    assert c != a  # 2^-12 collision chance with this seed: none


def test_sampler_negative_index_rejected():
    sampler = DisorderSampler({0: 0.5, 1: 0.5}, [(0,)], seed=1)
    with pytest.raises(ConfigError):
        sampler.sample(-1)


def test_sampler_digit_rows_are_the_indexed_samples():
    region = [(i,) for i in range(6)]
    sampler = DisorderSampler({-1: 0.4, 0: 0.2, 1: 0.4}, region, seed=17)
    rows = sampler.digits(5, 4)
    assert rows.shape == (4, 6)
    for i, row in enumerate(rows):
        decoded = {s: sampler.values[int(k)] for s, k in zip(sampler.sites, row)}
        assert decoded == sampler.sample(5 + i)
    with pytest.raises(ConfigError):
        sampler.digits(-1, 2)


def test_sampler_repeats_its_last_block_without_redrawing():
    region = [(i,) for i in range(5)]
    law = {-1: 0.5, 1: 0.5}
    first = DisorderSampler(law, region, seed=3).digits(0, 6)
    # another sampler of the same stream gets the same read-only rows
    assert DisorderSampler(law, region, seed=3).digits(0, 6) is first
    assert not first.flags.writeable
    # another seed, law, region size or block is drawn anew, row by index
    others = [
        (DisorderSampler(law, region, seed=4), 0),
        (DisorderSampler({-1: 0.2, 1: 0.8}, region, seed=3), 0),
        (DisorderSampler(law, region[:4], seed=3), 0),
        (DisorderSampler(law, region, seed=3), 1),
    ]
    for sampler, start in others:
        rows = sampler.digits(start, 6)
        assert rows is not first
        for i, row in enumerate(rows):
            decoded = {s: sampler.values[int(k)] for s, k in zip(sampler.sites, row)}
            assert decoded == sampler.sample(start + i)
    assert np.array_equal(rows[:5], first[1:])


def test_sampler_frequencies_match_the_law():
    region = [(i,) for i in range(200)]
    sampler = DisorderSampler({0: 0.7, 1: 0.3}, region, seed=9)
    count = total = 0
    for i in range(50):
        draw = sampler.sample(i)
        count += sum(draw.values())
        total += len(draw)
    freq = count / total
    assert abs(freq - 0.3) < 0.02  # ~4 sigma at 10^4 draws


# ---------------------------------------------------------------------------
# flip covariances
# ---------------------------------------------------------------------------


def test_c_xy_zero_without_coupling():
    ctx = QKernelContext(make_rfim(J=0.0, h=0.5), Box.from_shape(6))
    tilde = {s: 1 for s in ctx.eta_domain}
    got = c_xy(ctx, (1,), (4,), -1, -1, tilde)
    assert got == pytest.approx(0.0, abs=1e-14)


def test_c_xy_zero_when_flip_is_idle():
    ctx = QKernelContext(make_rfim(J=0.3, h=0.5), Box.from_shape(5))
    tilde = {s: 1 for s in ctx.eta_domain}
    assert c_xy(ctx, (0,), (3,), 1, -1, tilde) == pytest.approx(0.0, abs=1e-14)
    assert c_xy(ctx, (0,), (3,), -1, 1, tilde) == pytest.approx(0.0, abs=1e-14)


def test_c_xy_matches_brute_covariance():
    J, h = 0.2, 0.4
    box = Box.from_shape(7)
    ctx = QKernelContext(make_rfim(J=J, h=h), box)
    sites = box.sites()
    rng = np.random.default_rng(3)
    x, y = (2,), (5,)
    for _ in range(3):
        tilde = {s: int(rng.choice([-1, 1])) for s in sites}
        ex, ey = int(rng.choice([-1, 1])), int(rng.choice([-1, 1]))
        energy = oracles.rfim_energy(J, h, sites, tilde)

        def flip_obs(site, new):
            delta = h * (new - tilde[site])
            return lambda sig: math.exp(delta * sig[site])

        ox, oy = flip_obs(x, ex), flip_obs(y, ey)
        both = oracles.brute_expectation(
            sites, energy, lambda s: ox(s) * oy(s)
        )
        one = oracles.brute_expectation(sites, energy, ox)
        two = oracles.brute_expectation(sites, energy, oy)
        want = both - one * two
        assert c_xy(ctx, x, y, ex, ey, tilde) == pytest.approx(want, abs=1e-12)


def test_c_xy_pair_must_be_inside():
    ctx = QKernelContext(make_rfim(J=0.3, h=0.5), Box.from_shape(3))
    with pytest.raises(ValueError):
        c_xy(ctx, (0,), (9,), 1, 1, {s: 1 for s in ctx.eta_domain})


def test_representative_pair_geometry():
    assert representative_pair(Box.from_shape(12), 3) == ((4,), (7,))
    assert representative_pair(Box.from_shape(5, 5), 2, axis=1) == ((2, 1), (2, 3))
    with pytest.raises(ValueError):
        representative_pair(Box.from_shape(4), 4)


def test_cbar_zero_for_decoupled_model():
    ctx = QKernelContext(make_rfim(J=0.0, h=0.5), Box.from_shape(6))
    est = cbar(ctx, 2, samples=24, seed=1, batches=8)
    assert est.cbar == pytest.approx(0.0, abs=1e-13)


def test_cbar_zero_for_dilute_without_coupling():
    ctx = QKernelContext(make_dilute(J=1e-9, p=0.4), Box.from_shape(5))
    est = cbar(ctx, 1, samples=24, seed=2, batches=8)
    assert est.cbar < 1e-8


def test_cbar_structure_and_reproducibility():
    ctx = QKernelContext(make_rfim(J=0.3, h=0.5), Box.from_shape(6))
    est = cbar(ctx, 2, samples=24, seed=5, batches=8)
    assert est.m == 2
    assert est.n_samples == 24
    assert est.pair == representative_pair(ctx.box, 2)
    assert set(est.breakdown) == {(a, b) for a in (-1, 1) for b in (-1, 1)}
    assert est.cbar == max(v["mean_abs"] for v in est.breakdown.values())
    assert tuple(est.meta["argmax"]) in est.breakdown
    again = cbar(ctx, 2, samples=24, seed=5, batches=8)
    assert again.cbar == est.cbar
    rows = est.rows()
    assert len(rows) == 4
    assert all(r["m"] == 2 and r["samples"] == 24 for r in rows)


def test_cbar_is_the_sample_average_of_c_xy():
    # cbar gathers log Z by disorder code; c_xy per sample is the reference.
    # The alphabet is out of sorted order and holds a value the law never
    # draws, so the sampler's digits must be mapped onto alphabet digits
    spec = make_rfim(J=0.4, h=0.6, disorder_values=(1, 0, -1), nu={1: 0.3, -1: 0.7})
    ctx = QKernelContext(spec, Box.from_shape(2, 3))
    est = cbar(ctx, 1, samples=16, seed=9, batches=8)
    assert set(est.breakdown) == {(a, b) for a in (1, 0, -1) for b in (1, 0, -1)}
    assert est.cbar > 1e-6
    x, y = est.pair
    sampler = DisorderSampler(spec.nu, ctx.eta_domain, seed=9)
    tildes = [sampler.sample(i) for i in range(16)]
    for (vx, vy), stats in est.breakdown.items():
        ref = np.array([c_xy(ctx, x, y, vx, vy, t) for t in tildes])
        assert stats["mean_signed"] == pytest.approx(ref.mean(), rel=1e-12, abs=1e-16)
        assert stats["mean_abs"] == pytest.approx(np.abs(ref).mean(), rel=1e-12, abs=1e-16)


# On a free-boundary chain Z = 2 prod_b 2cosh(J_b): log Z is a sum over bonds,
# two bond flips act on it additively, and every flip covariance is zero in
# exact arithmetic, whatever the coupling alphabet.


def test_free_chain_log_partition_is_a_sum_over_bonds():
    ctx = QKernelContext(make_random_bond([-0.2, 0.2], d=1), Box.from_shape(12))
    sampler = DisorderSampler(ctx.spec.nu, ctx.eta_domain, seed=12)
    want = math.log(2.0) + 11 * math.log(2.0 * math.cosh(0.2))
    draws = [sampler.sample(i) for i in range(8)]
    assert len({tuple(sorted(d.items())) for d in draws}) > 1
    for eta in draws:
        assert abs(ctx.log_partition_at(eta) - want) <= 1e-12


@pytest.mark.parametrize("alphabet", [[-0.2, 0.2], [0.1, 0.9]])
def test_free_chain_bond_flip_covariances_vanish(alphabet):
    ctx = QKernelContext(make_random_bond(alphabet, d=1), Box.from_shape(12))
    for m in (1, 2, 3, 4):
        est = cbar(ctx, m, samples=200, seed=40 + m)
        assert est.cbar <= 1e-14, (m, est.cbar)


def test_cbar_rejects_thin_sampling():
    ctx = QKernelContext(make_rfim(J=0.3, h=0.5), Box.from_shape(4))
    with pytest.raises(ConfigError):
        cbar(ctx, 1, samples=10, seed=1)
    with pytest.raises(ValueError):
        cbar(ctx, 0, samples=100, seed=1)


# ---------------------------------------------------------------------------
# decay budget
# ---------------------------------------------------------------------------


def test_decay_budget_base_term_only():
    out = decay_budget({}, 0.25, d=2, mbar=0.8)
    assert out.c1 == pytest.approx(2 * 0.8 * 0.25)
    assert out.c2 == pytest.approx(math.exp(1.6))
    assert out.value == pytest.approx(out.c1)
    assert out.terms == []
    assert float(out) == out.value


def test_decay_budget_single_entry_closed_form():
    a, c, m = 0.25, 1e-3, 3
    out = decay_budget({m: c}, a, d=2, mbar=0.8)
    want = 2 * 0.8 * a + math.exp(1.6) * m**3 * a * c
    assert out.value == pytest.approx(want, rel=1e-12)
    assert out.truncated_at == 3


def test_decay_budget_weight_profiles():
    entries = {1: 2e-2, 2: 5e-3, 3: 1e-3}
    profile = {m: math.exp(-m) for m in (1, 2, 3)}
    by_map = decay_budget(entries, profile, d=1, mbar=0.5)
    by_fn = decay_budget(
        entries, lambda z: math.exp(-max(abs(v) for v in z)), d=1, mbar=0.5
    )
    manual = 2 * 0.5 * math.exp(-1) + sum(
        math.exp(1.0) * m * math.exp(-m) * c for m, c in entries.items()
    )
    assert by_map.value == pytest.approx(manual, rel=1e-12)
    assert by_fn.value == pytest.approx(manual, rel=1e-12)


def test_decay_budget_grows_with_entries():
    small = decay_budget({1: 1e-3}, 0.3, d=1, mbar=0.5)
    big = decay_budget({1: 1e-3, 2: 1e-3}, 0.3, d=1, mbar=0.5)
    assert big.value > small.value


def test_decay_budget_negative_entry_rejected():
    with pytest.raises(ConfigError):
        decay_budget({1: -1e-4}, 0.3, d=1, mbar=0.5)


def test_decay_budget_mbar_from_model():
    spec = make_rfim(J=0.3, h=0.5)
    out = decay_budget({}, 1.0, d=1, spec=spec)
    # flipping one field value swings the local term by 2h = 1.0
    assert out.mbar == pytest.approx(1.0, abs=1e-12)
    assert out.c1 == pytest.approx(2.0)
    assert out.c2 == pytest.approx(math.exp(2.0))


def test_decay_budget_needs_a_scale():
    with pytest.raises(ConfigError):
        decay_budget({}, 1.0, d=1)


def test_decay_budget_accepts_estimates():
    est = CorrelationEstimate(m=2, cbar=1e-3, stderr=1e-5, n_samples=100, pair=((0,), (2,)))
    out = decay_budget({2: est}, 1.0, d=1, mbar=0.5)
    assert out.terms == [(2, pytest.approx(math.exp(1.0) * 2 * 1e-3))]


def test_correlation_csv_layout():
    ctx = QKernelContext(make_rfim(J=0.3, h=0.5), Box.from_shape(5))
    est = cbar(ctx, 1, samples=16, seed=3, batches=8)
    buf = io.StringIO()
    write_correlation_csv([est], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "m,cbar,stderr,samples,eta_x,eta_y"
    assert len(lines) == 5