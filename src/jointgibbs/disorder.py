"""Disorder sampling and averaged quenched-correlation decay estimates.

Disorder fields are drawn sitewise i.i.d. from a product law with a
(master seed, sample index) scheme, so any sample can be regenerated in
isolation.  Every Monte Carlo average over the disorder law in the package
draws from this one stream.  The correlation machinery estimates the disorder-averaged
absolute covariance of two local disorder flips under the quenched Gibbs
measure, tracks it against separation, and combines it with a translation-
invariant weight into a single decay budget.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .lattice import Box, SiteSet, as_site
from .model import ModelSpec, sup_delta_h_single_site
from .qkernel import QKernelContext
from .stats import DEFAULT_BATCHES, batch_means

# Averaged covariances at or below this are rounding noise, not signal: a
# decay slope is fitted only to separations whose cbar exceeds it.
CBAR_NOISE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class DisorderSampler:
    """Sitewise-independent disorder fields, reproducible per (seed, index)."""

    def __init__(self, nu: Mapping, region, seed: int):
        total = float(sum(nu.values()))
        if total <= 0 or any(w < 0 for w in nu.values()):
            raise ConfigError("disorder law needs nonnegative weights, positive sum")
        items = sorted((v, w / total) for v, w in nu.items() if w > 0)
        self.values = [v for v, _ in items]
        self.probs = np.asarray([w for _, w in items])
        if isinstance(region, Box):
            self.sites = tuple(region.sites())
        else:
            self.sites = tuple(sorted(as_site(s) for s in region))
        self.seed = int(seed)

    def digits(self, start: int, count: int) -> np.ndarray:
        """Draws ``start .. start+count-1`` as indices into ``values``.

        Row ``i`` is the draw of sample index ``start + i`` (one site per
        column, in ``sites`` order), so any block of the stream can be
        regenerated on its own.
        """
        if start < 0:
            raise ConfigError("sample index must be nonnegative")
        out = np.empty((count, len(self.sites)), dtype=np.int64)
        for i in range(count):
            seq = np.random.SeedSequence([self.seed, int(start) + i])
            rng = np.random.default_rng(seq)
            out[i] = rng.choice(len(self.values), size=len(self.sites), p=self.probs)
        return out

    def sample(self, index: int) -> dict:
        picks = self.digits(index, 1)[0]
        return {s: self.values[int(k)] for s, k in zip(self.sites, picks)}


# ---------------------------------------------------------------------------
# quenched covariances of disorder flips
# ---------------------------------------------------------------------------


def _flip_covariance(lq_xy, lq_x, lq_y):
    """``q_x q_y (exp(b) - 1)`` with ``b = lq_xy - lq_x - lq_y``, elementwise.

    A zero bracket gives exactly zero, and a small covariance is not the
    difference of two numbers near 1.
    """
    return np.exp(lq_x + lq_y) * np.expm1(lq_xy - lq_x - lq_y)


def c_xy(ctx: QKernelContext, x, y, eta_x, eta_y, eta_tilde: Mapping) -> float:
    """Covariance-type defect of two single-site disorder flips.

    The quenched average of exp(-energy difference) for flipping the
    disorder at both sites (from its value in ``eta_tilde`` to the given
    values), minus the product of the two single-flip averages — all under
    the ensemble quenched at ``eta_tilde``.  Each average is a ratio of two
    cached partition functions.

    Evaluated as ``q_x q_y (exp(b) - 1)`` with ``b`` the pair-flip bracket
    (see ``potentials.pair_flip_bracket``).
    """
    x, y = as_site(x), as_site(y)
    pair = SiteSet([x, y])
    if not pair.issubset(ctx.box):
        raise ValueError(f"pair {pair.sites} is not inside the working box")
    base = {x: eta_tilde[x], y: eta_tilde[y]}
    lq_xy = ctx.log_q(pair, {x: eta_x, y: eta_y}, base, eta_tilde)
    lq_x = ctx.log_q(pair, {x: eta_x, y: base[y]}, base, eta_tilde)
    lq_y = ctx.log_q(pair, {x: base[x], y: eta_y}, base, eta_tilde)
    return float(_flip_covariance(lq_xy, lq_x, lq_y))


@dataclass
class CorrelationEstimate:
    """Disorder-averaged |c_xy| at one separation, maximized over flip values."""

    m: int
    cbar: float
    stderr: float
    n_samples: int
    pair: tuple
    breakdown: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def rows(self) -> list:
        out = []
        for (vx, vy), stats in self.breakdown.items():
            out.append(
                {
                    "m": self.m,
                    "cbar": stats["mean_abs"],
                    "stderr": stats["stderr"],
                    "samples": self.n_samples,
                    "eta_x": vx,
                    "eta_y": vy,
                }
            )
        return out


def representative_pair(box: Box, m: int, axis: int = 0) -> tuple:
    """A centered axis-aligned site pair at separation m inside the box."""
    lo, hi = box.lower, box.upper
    extent = hi[axis] - lo[axis] + 1
    if m >= extent:
        raise ValueError(f"separation {m} does not fit in the box along axis {axis}")
    start = lo[axis] + (extent - 1 - m) // 2
    x = tuple(
        (start if a == axis else (lo[a] + hi[a]) // 2) for a in range(len(lo))
    )
    y = tuple(c + (m if a == axis else 0) for a, c in enumerate(x))
    return x, y


def cbar(
    ctx: QKernelContext,
    m: int,
    samples: int,
    seed: int,
    *,
    batches: int = DEFAULT_BATCHES,
) -> CorrelationEstimate:
    """Estimate the averaged absolute flip covariance at separation ``m``.

    Draws disorder configurations i.i.d. from the model's product law,
    computes |c_xy| at a centered pair along axis 0 for every choice of the
    two flip values, and returns the largest mean with its batch-means
    error; the per-value breakdown (including the signed mean as a
    diagnostic) is attached.
    """
    if m < 1:
        raise ValueError("separation must be at least 1")
    if samples < 2 * batches:
        raise ConfigError(
            f"insufficient samples: {samples} < {2 * batches} (2 per batch)"
        )
    x, y = representative_pair(ctx.box, m)
    values = ctx.spec.disorder_values
    sampler = DisorderSampler(ctx.spec.nu, ctx.eta_domain, seed)
    to_alphabet = np.array([values.index(v) for v in sampler.values], dtype=np.int64)
    # an extra zero column of stride 0 stands in for a site no term reads
    rows = np.pad(to_alphabet[sampler.digits(0, samples)], ((0, 0), (0, 1)))
    strides = np.append(ctx.strides(), 0)
    px, py = (ctx.eta_domain.index(s) if s in ctx.eta_domain else -1 for s in (x, y))
    dx, dy = rows[:, px], rows[:, py]
    base = rows @ strides - dx * strides[px] - dy * strides[py]
    # log Z with the pair set to every (vx, vy); the sample's own value at x
    # or y is one of them, so the unflipped and single-flip terms are gathers
    flips = np.arange(len(values), dtype=np.int64)
    logz = ctx.logz(base + flips[:, None, None] * strides[px] + flips[None, :, None] * strides[py])
    col = np.arange(samples)
    tilde = logz[dx, dy, col]
    series = {}
    for i, vx in enumerate(values):
        lq_x = logz[i, dy, col] - tilde
        for j, vy in enumerate(values):
            lq_y = logz[dx, j, col] - tilde
            series[(vx, vy)] = _flip_covariance(logz[i, j] - tilde, lq_x, lq_y)
    breakdown = {}
    top = None
    for key, arr in series.items():
        est = batch_means(np.abs(arr), batches)
        breakdown[key] = {
            "mean_abs": est.value,
            "stderr": est.stderr,
            "mean_signed": float(arr.mean()),
        }
        if top is None or est.value > top[0]:
            top = (est.value, est.stderr, key)
    return CorrelationEstimate(
        m=int(m),
        cbar=top[0],
        stderr=top[1],
        n_samples=samples,
        pair=(x, y),
        breakdown=breakdown,
        meta={"seed": seed, "axis": 0, "argmax": list(top[2])},
    )


# ---------------------------------------------------------------------------
# decay budget
# ---------------------------------------------------------------------------


@dataclass
class DecayBudget:
    """C1 + C2 * sum of m^(2d-1) * weight(m) * cbar(m) over available m."""

    value: float
    c1: float
    c2: float
    mbar: float
    terms: list
    truncated_at: int

    def __float__(self) -> float:
        return self.value


def _weight_bar(weight, m: int, d: int) -> float:
    """The weight's half-ball profile at distance m."""
    if callable(weight):
        best = 0.0
        # order-forward shell of the origin at sup-distance m
        for z in Box(tuple([-m] * d), tuple([m] * d)).sites():
            if max(abs(c) for c in z) != m or z <= tuple([0] * d):
                continue
            best = max(best, float(weight(z)))
        return best
    if isinstance(weight, Mapping):
        return float(weight[m])
    return float(weight)


def decay_budget(
    cbar_table: Mapping,
    weight,
    d: int,
    *,
    mbar: float | None = None,
    spec: ModelSpec | None = None,
) -> DecayBudget:
    """Combine per-separation correlation estimates into one decay bound.

    ``cbar_table`` maps m to an estimate (or a plain number); ``weight`` is
    a constant, an m-profile mapping, or a translation-invariant site
    function whose half-ball maximum is used.  The two constants come from
    the a-priori uniform bound on a single-site flip's energy difference
    (supplied directly or computed from the model).
    """
    if mbar is None:
        if spec is None:
            raise ConfigError("need either mbar or a model to derive it from")
        mbar = sup_delta_h_single_site(spec, d)
    c1 = 2.0 * mbar * _weight_bar(weight, 1, d)
    c2 = math.exp(2.0 * mbar)
    total = c1
    terms = []
    last = 0
    for m in sorted(cbar_table):
        c = cbar_table[m]
        c = float(c.cbar) if isinstance(c, CorrelationEstimate) else float(c)
        if c < 0:
            raise ConfigError(f"negative correlation entry at m={m}")
        term = c2 * m ** (2 * d - 1) * _weight_bar(weight, m, d) * c
        terms.append((int(m), term))
        total += term
        last = max(last, int(m))
    return DecayBudget(
        value=total, c1=c1, c2=c2, mbar=float(mbar), terms=terms, truncated_at=last
    )


# ---------------------------------------------------------------------------
# energy-energy correlations
# ---------------------------------------------------------------------------


def energy_energy_correlation(
    ctx: QKernelContext, x, e, y, e_prime, eta_tilde: Mapping
) -> float:
    """Connected 4-spin function of two disjoint bonds, quenched at eta_tilde."""
    x, y = as_site(x), as_site(y)
    x2 = tuple(a + b for a, b in zip(x, e))
    y2 = tuple(a + b for a, b in zip(y, e_prime))
    if {x, x2} & {y, y2}:
        raise ValueError(f"bonds ({x},{x2}) and ({y},{y2}) overlap")
    ens = ctx.ensemble(eta_tilde)
    four = ens.spin_product([x, x2, y, y2])
    first = ens.spin_product([x, x2])
    second = ens.spin_product([y, y2])
    return four - first * second


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

CORRELATION_FIELDS = ["m", "cbar", "stderr", "samples", "eta_x", "eta_y"]


def write_correlation_csv(estimates: Sequence[CorrelationEstimate], fp) -> None:
    writer = csv.DictWriter(fp, fieldnames=CORRELATION_FIELDS)
    writer.writeheader()
    for est in estimates:
        for row in est.rows():
            writer.writerow(row)
