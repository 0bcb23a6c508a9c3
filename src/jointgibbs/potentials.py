"""Interaction potentials for the joint (spin, disorder) measure.

The pipeline: a relative energy assigns to every disorder patch on a subset
of the working box the averaged log partition-function ratio against a
normalizing measure (a product law or a point mass at a vacuum
configuration).  Its Möbius transform over subsets of a window is a
potential whose partial sums telescope back to averaged log-ratios; feeding
those partial sums into the annealed weights reconstructs the conditional
law of the joint measure.  Resummation schemes regroup the potential into
cells along a site order, and a shell diagnostic estimates how fast the
single-site averaged log-ratio localizes.

Everything here is finite-volume and either exact (exhaustive disorder
integration, capped) or Monte Carlo with seeded, paired sampling and
batch-means error bars.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    ConfigError,
    SchemeError,
    WindowMismatchError,
)
from .lattice import (
    SUBSET_ENUMERATION_CAP,
    Box,
    SiteOrder,
    SiteSet,
    as_site,
    connected_components,
    linf_dist,
)
from .model import make_dilute
from .qkernel import QKernelContext
from .quenched import QuenchedEnsemble
from .stats import DEFAULT_BATCHES, EstimatedValue, batch_means

EXACT_INTEGRATION_CAP_BITS = 20
TABULATION_CAP_BITS = 22


# ---------------------------------------------------------------------------
# normalizing measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizingMeasure:
    """Either a per-site product law or a point mass at a vacuum field."""

    kind: str  # "product" | "point"
    nu: tuple | None = None  # ((value, weight), ...) for product
    vacuum_map: tuple | None = None  # ((site, value), ...) for point
    vacuum_fill: object = None

    @classmethod
    def product(cls, nu: Mapping | None = None) -> "NormalizingMeasure":
        law = None
        if nu is not None:
            total = float(sum(nu.values()))
            if total <= 0 or any(w < 0 for w in nu.values()):
                raise ConfigError("product law needs nonnegative weights, positive sum")
            law = tuple(sorted((v, w / total) for v, w in nu.items() if w > 0))
        return cls("product", nu=law)

    @classmethod
    def point_mass(cls, vacuum=None, *, fill=None) -> "NormalizingMeasure":
        if vacuum is None and fill is None:
            raise ConfigError("point mass needs a vacuum configuration or fill value")
        vm = None
        if vacuum is not None and isinstance(vacuum, Mapping):
            vm = tuple(sorted((as_site(k), v) for k, v in vacuum.items()))
        elif vacuum is not None:
            fill = vacuum
        return cls("point", vacuum_map=vm, vacuum_fill=fill)

    @property
    def is_product(self) -> bool:
        return self.kind == "product"

    def law(self, spec) -> dict:
        """The per-site law as a dict (product kind only)."""
        if not self.is_product:
            raise ConfigError("not a product measure")
        if self.nu is not None:
            return dict(self.nu)
        return dict(spec.nu)

    def vacuum_at(self, site) -> object:
        if self.is_product:
            raise ConfigError("product measure has no vacuum")
        if self.vacuum_map is not None:
            for s, v in self.vacuum_map:
                if s == site:
                    return v
        if self.vacuum_fill is not None:
            return self.vacuum_fill
        raise ConfigError(f"vacuum value missing at {site}")

    def vacuum_on(self, sites) -> dict:
        return {s: self.vacuum_at(s) for s in sites}

    def tag(self) -> str:
        if self.is_product:
            return "product"
        if self.vacuum_fill is not None and self.vacuum_map is None:
            return f"vacuum:{self.vacuum_fill}"
        return "vacuum:map"


def _law_items(law: Mapping) -> list:
    items = [(v, w) for v, w in law.items() if w > 0]
    if not items:
        raise ConfigError("empty disorder law")
    return items


def _product_assignments(sites: Sequence, law: Mapping):
    """Yield (assignment dict, weight) over a product law on ``sites``."""
    items = _law_items(law)
    if not sites:
        yield {}, 1.0
        return
    for combo in product(items, repeat=len(sites)):
        w = 1.0
        out = {}
        for s, (v, wv) in zip(sites, combo):
            out[s] = v
            w *= wv
        yield out, w


def _integration_bits(n_sites: int, law: Mapping) -> float:
    k = len(_law_items(law))
    return n_sites * math.log2(max(2, k))


# ---------------------------------------------------------------------------
# relative energy
# ---------------------------------------------------------------------------


def _mean_log_partition(ctx: QKernelContext, law: Mapping) -> float:
    key = tuple(sorted(law.items()))
    hit = ctx._mean_logz.get(key)
    if hit is None:
        acc = 0.0
        for assign, w in _product_assignments(ctx.eta_domain, law):
            acc += w * ctx.log_partition_at(assign)
        ctx._mean_logz[key] = acc
        hit = acc
    return hit


def relative_energy(
    ctx: QKernelContext,
    V,
    eta_V: Mapping,
    alpha: NormalizingMeasure,
    *,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
    batches: int = DEFAULT_BATCHES,
    cap_bits: int = EXACT_INTEGRATION_CAP_BITS,
):
    """Averaged log-ratio of partition functions for a disorder patch.

    Against a product law this integrates the reference configuration out
    exactly (capped) or by paired Monte Carlo (``mode='mc'``); against a
    point mass it is a single log-ratio.
    """
    Vset = V if isinstance(V, SiteSet) else SiteSet(V)
    if len(Vset) == 0:
        return 0.0
    if not Vset.issubset(ctx.box):
        raise ValueError(f"patch {Vset.sites} is not inside the box")

    if not alpha.is_product:
        vac = alpha.vacuum_on(ctx.eta_domain)
        num = dict(vac)
        for s in Vset:
            num[s] = eta_V[s]
        return ctx.log_partition_at(num) - ctx.log_partition_at(vac)

    law = alpha.law(ctx.spec)
    rest = [s for s in ctx.eta_domain if s not in Vset]
    if mode == "exact":
        if _integration_bits(len(ctx.eta_domain), law) > cap_bits:
            raise CapExceededError(
                "exact disorder integration",
                math.ceil(_integration_bits(len(ctx.eta_domain), law)),
                cap_bits,
            )
        acc = 0.0
        for assign, w in _product_assignments(rest, law):
            for s in Vset:
                assign[s] = eta_V[s]
            acc += w * ctx.log_partition_at(assign)
        return acc - _mean_log_partition(ctx, law)
    if mode == "mc":
        if samples is None or seed is None:
            raise ConfigError("MC mode needs samples and seed")
        rng = np.random.default_rng([seed])
        values, weights = zip(*_law_items(law))
        probs = np.asarray(weights, dtype=np.float64)
        draws = rng.choice(len(values), size=(samples, len(ctx.eta_domain)), p=probs)
        out = np.zeros(samples)
        for i in range(samples):
            tilde = {s: values[int(k)] for s, k in zip(ctx.eta_domain, draws[i])}
            base = ctx.log_partition_at(tilde)
            mixed = dict(tilde)
            for s in Vset:
                mixed[s] = eta_V[s]
            out[i] = ctx.log_partition_at(mixed) - base
        est = batch_means(out, batches)
        return est
    raise ConfigError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# potential tables
# ---------------------------------------------------------------------------


def _sites_key(A) -> tuple:
    if isinstance(A, SiteSet):
        return A.sites
    return tuple(sorted(as_site(s) for s in A))


class ConstantEntry:
    """A disorder-independent potential value."""

    __slots__ = ("v",)

    def __init__(self, v: float):
        self.v = float(v)

    def value(self, sites, eta=None) -> float:
        return self.v

    def to_json(self) -> dict:
        return {"value": self.v}


class TabulatedEntry:
    """A value per disorder pattern on the entry's sites."""

    __slots__ = ("values", "alphabet")

    def __init__(self, values, alphabet: Sequence):
        self.alphabet = tuple(alphabet)
        self.values = np.asarray(values, dtype=np.float64).ravel()

    def value(self, sites, eta=None) -> float:
        if eta is None:
            raise ConfigError("entry is disorder-dependent; no eta given")
        k = len(self.alphabet)
        idx = 0
        for j, s in enumerate(sites):
            idx += self.alphabet.index(eta[s]) * k**j
        return float(self.values[idx])

    def to_json(self) -> dict:
        return {"values": self.values.tolist(), "alphabet": list(self.alphabet)}


class OccupiedProductEntry:
    """coeff times a product of occupations (optionally centered at p)."""

    __slots__ = ("coeff", "center")

    def __init__(self, coeff: float, center: float | None = None):
        self.coeff = float(coeff)
        self.center = None if center is None else float(center)

    def value(self, sites, eta=None) -> float:
        if eta is None:
            raise ConfigError("entry is disorder-dependent; no eta given")
        out = self.coeff
        c = self.center or 0.0
        for s in sites:
            out *= eta[s] - c
        return out

    def to_json(self) -> dict:
        form = {"kind": "occupied_product", "coeff": self.coeff}
        if self.center is not None:
            form["center"] = self.center
        return {"coeff_form": form}


def _entry_from_json(blob: dict):
    if "value" in blob:
        return ConstantEntry(blob["value"])
    if "values" in blob:
        alphabet = [v if not isinstance(v, list) else tuple(v) for v in blob["alphabet"]]
        return TabulatedEntry(blob["values"], alphabet)
    if "coeff_form" in blob:
        form = blob["coeff_form"]
        if form.get("kind") == "occupied_product":
            return OccupiedProductEntry(form["coeff"], form.get("center"))
    raise ConfigError(f"unknown potential entry {blob!r}")


class PotentialTable:
    """Finite-support potential on subsets of a window.

    Entries are constants, per-pattern tables, or symbolic coefficient
    forms; :meth:`value` evaluates any of them at a disorder configuration.
    """

    def __init__(self, window=None, alpha: str = "", meta: dict | None = None):
        if isinstance(window, Box):
            self.window_sites = tuple(window.sites())
            self.window_box = window
        elif window is not None:
            self.window_sites = tuple(sorted(as_site(s) for s in window))
            self.window_box = None
        else:
            self.window_sites = None
            self.window_box = None
        self.alpha = alpha
        self.meta = dict(meta or {})
        self._entries: dict = {}

    def set(self, A, entry) -> None:
        key = _sites_key(A)
        if self.window_sites is not None:
            missing = [s for s in key if s not in set(self.window_sites)]
            if missing:
                raise WindowMismatchError(f"sites {missing} outside the window")
        if not isinstance(entry, (ConstantEntry, TabulatedEntry, OccupiedProductEntry)):
            entry = ConstantEntry(float(entry))
        self._entries[key] = entry

    def entry(self, A):
        return self._entries.get(_sites_key(A))

    def value(self, A, eta: Mapping | None = None) -> float:
        key = _sites_key(A)
        e = self._entries.get(key)
        if e is None:
            return 0.0
        return e.value(key, eta)

    def support(self, eta: Mapping | None = None) -> list:
        return [SiteSet(k) for k in sorted(self._entries)]

    def items(self):
        return [(SiteSet(k), e) for k, e in sorted(self._entries.items())]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, A) -> bool:
        return _sites_key(A) in self._entries

    def max_abs(self, eta: Mapping | None = None) -> float:
        out = 0.0
        for A in self.support(eta):
            out = max(out, abs(self.value(A, eta)))
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for key, e in sorted(self._entries.items()):
            blob = {"sites": [list(s) for s in key]}
            blob.update(e.to_json())
            entries.append(blob)
        out = {"alpha": self.alpha, "entries": entries}
        if self.window_box is not None:
            out["window"] = self.window_box.to_json()
        elif self.window_sites is not None:
            out["window"] = [list(s) for s in self.window_sites]
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_json(cls, blob: dict) -> "PotentialTable":
        window = blob.get("window")
        if isinstance(window, dict):
            window = Box.from_json(window)
        elif window is not None:
            window = [tuple(s) for s in window]
        table = cls(window, blob.get("alpha", ""), blob.get("meta"))
        for e in blob.get("entries", []):
            table.set([tuple(s) for s in e["sites"]], _entry_from_json(e))
        return table

    def dump(self, fp) -> None:
        json.dump(self.to_json(), fp, indent=1)

    @classmethod
    def load(cls, fp) -> "PotentialTable":
        return cls.from_json(json.load(fp))


# ---------------------------------------------------------------------------
# Möbius transform of a subset energy function
# ---------------------------------------------------------------------------


def mobius_potential(
    window,
    energy: Callable,
    *,
    disorder_values: Sequence | None = None,
    alpha_tag: str = "",
    cap: int = SUBSET_ENUMERATION_CAP,
) -> PotentialTable:
    """Inclusion-exclusion transform of ``energy`` over subsets of a window.

    ``energy(SiteSet) -> float`` yields a fixed-disorder table;
    ``energy(SiteSet, eta_map) -> float`` with ``disorder_values`` yields a
    table tabulated over disorder patterns per subset.  The signed subset
    sums are evaluated by a dense in-place butterfly over bitmasks, so the
    inverse identity (subset sums of entries recover the energy) holds to
    round-off.
    """
    if isinstance(window, Box):
        sites = tuple(window.sites())
    else:
        sites = tuple(sorted(as_site(s) for s in window))
    n = len(sites)
    if n > cap:
        raise CapExceededError("subset transform window", n, cap)
    table = PotentialTable(window, alpha_tag)

    if disorder_values is None:
        vals = np.zeros(1 << n)
        for mask in range(1, 1 << n):
            A = SiteSet([sites[i] for i in range(n) if mask >> i & 1])
            vals[mask] = energy(A)
        for i in range(n):
            bit = 1 << i
            for mask in range(1 << n):
                if mask & bit:
                    vals[mask] -= vals[mask ^ bit]
        for mask in range(1, 1 << n):
            A = [sites[i] for i in range(n) if mask >> i & 1]
            table.set(A, ConstantEntry(vals[mask]))
        return table

    k = len(disorder_values)
    bits = n + n * math.log2(k)
    if bits > TABULATION_CAP_BITS:
        raise CapExceededError("tabulated subset transform", math.ceil(bits), TABULATION_CAP_BITS)
    n_codes = k**n
    codes = np.arange(n_codes, dtype=np.int64)
    digit = [(codes // k**i) % k for i in range(n)]
    vals = np.zeros((1 << n, n_codes))
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        A = SiteSet([sites[i] for i in members])
        local = np.zeros(k ** len(members))
        for j, combo in enumerate(product(disorder_values, repeat=len(members))):
            eta = {sites[i]: v for i, v in zip(members, combo)}
            # combo order: first member is the fastest digit
            idx = 0
            for pos in range(len(members)):
                idx += disorder_values.index(combo[pos]) * k**pos
            local[idx] = energy(A, eta)
        gather = np.zeros(n_codes, dtype=np.int64)
        for pos, i in enumerate(members):
            gather += digit[i] * k**pos
        vals[mask] = local[gather]
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                vals[mask] -= vals[mask ^ bit]
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        A = [sites[i] for i in members]
        # compress the full-code row to the entry's own digits
        local_idx = np.zeros(k ** len(members), dtype=np.int64)
        for j, combo in enumerate(product(range(k), repeat=len(members))):
            code = 0
            for pos, i in enumerate(members):
                code += combo[pos] * k**i
            lidx = 0
            for pos in range(len(members)):
                lidx += combo[pos] * k**pos
            local_idx[lidx] = code
        table.set(A, TabulatedEntry(vals[mask][local_idx], disorder_values))
    return table


def relative_energy_table(
    ctx: QKernelContext,
    alpha: NormalizingMeasure,
    *,
    window=None,
    cap: int = SUBSET_ENUMERATION_CAP,
) -> PotentialTable:
    """Möbius potential of this context's relative energy over its window."""
    window = window if window is not None else ctx.box
    return mobius_potential(
        window,
        lambda A, eta: relative_energy(ctx, A, eta, alpha),
        disorder_values=ctx.spec.disorder_values,
        alpha_tag=alpha.tag(),
        cap=cap,
    )


# ---------------------------------------------------------------------------
# identities: martingale, partial sums, reconstruction
# ---------------------------------------------------------------------------


def check_martingale(
    ctx: QKernelContext,
    V,
    delta,
    eta_V: Mapping,
    alpha: NormalizingMeasure,
) -> float:
    """Residual of averaging the larger-patch energy down to the smaller.

    Integrates the relative energy on ``delta`` over the extension of the
    patch from ``V`` to ``delta`` and subtracts the relative energy on
    ``V``; identically zero in exact arithmetic.
    """
    Vset = V if isinstance(V, SiteSet) else SiteSet(V)
    dset = delta if isinstance(delta, SiteSet) else SiteSet(delta)
    if not Vset.issubset(dset):
        raise ValueError("V must lie inside delta")
    fill = [s for s in dset if s not in Vset]
    if alpha.is_product:
        law = alpha.law(ctx.spec)
        lhs = 0.0
        for assign, w in _product_assignments(fill, law):
            patch = dict(assign)
            for s in Vset:
                patch[s] = eta_V[s]
            lhs += w * relative_energy(ctx, dset, patch, alpha)
    else:
        patch = alpha.vacuum_on(fill)
        for s in Vset:
            patch[s] = eta_V[s]
        lhs = relative_energy(ctx, dset, patch, alpha)
    rhs = relative_energy(ctx, Vset, eta_V, alpha)
    if len(Vset) == 0:
        rhs = 0.0
    return lhs - rhs


def partial_sum(table: PotentialTable, V, delta, eta: Mapping | None = None) -> float:
    """Sum of entries inside ``delta`` that meet ``V``."""
    Vset = V if isinstance(V, SiteSet) else SiteSet(V)
    if len(Vset) == 0:
        return 0.0
    dset = delta if isinstance(delta, SiteSet) else SiteSet(
        delta.sites() if isinstance(delta, Box) else delta
    )
    if table.window_sites is not None:
        win = set(table.window_sites)
        outside = [s for s in dset if s not in win]
        if outside:
            raise WindowMismatchError(
                f"summation region leaves the table window at {outside[:4]}"
            )
    total = 0.0
    for A in table.support(eta):
        if Vset.isdisjoint(A):
            continue
        if not A.issubset(dset):
            continue
        total += table.value(A, eta)
    return total


def partial_sum_expected(
    ctx: QKernelContext,
    V,
    delta,
    eta: Mapping,
    alpha: NormalizingMeasure,
    *,
    cap_bits: int = EXACT_INTEGRATION_CAP_BITS,
) -> float:
    """The averaged log-ratio the partial sum must reproduce.

    Integrates, against the normalizing measure, the log-ratio for flipping
    the patch on ``V`` with disorder held at ``eta`` on ``delta`` and
    averaged outside ``delta``.  This is the independent route: it never
    touches a potential table.
    """
    Vset = V if isinstance(V, SiteSet) else SiteSet(V)
    if len(Vset) == 0:
        return 0.0
    dset = delta if isinstance(delta, SiteSet) else SiteSet(
        delta.sites() if isinstance(delta, Box) else delta
    )
    if not Vset.issubset(dset):
        raise ValueError("V must lie inside delta")
    mid = [s for s in dset if s not in Vset and s in set(ctx.eta_domain)]
    far = [s for s in ctx.eta_domain if s not in dset]
    if alpha.is_product:
        law = alpha.law(ctx.spec)
        if _integration_bits(len(Vset) + len(far), law) > cap_bits:
            raise CapExceededError(
                "exact disorder integration",
                math.ceil(_integration_bits(len(Vset) + len(far), law)),
                cap_bits,
            )
        total = 0.0
        for assign, w in _product_assignments(list(Vset) + far, law):
            env = {s: eta[s] for s in mid}
            for s in far:
                env[s] = assign[s]
            e1 = {s: eta[s] for s in Vset}
            e2 = {s: assign[s] for s in Vset}
            total += w * ctx.log_q(Vset, e1, e2, env)
        return total
    env = {s: eta[s] for s in mid}
    for s in far:
        env[s] = alpha.vacuum_at(s)
    e1 = {s: eta[s] for s in Vset}
    e2 = alpha.vacuum_on(Vset.sites)
    return ctx.log_q(Vset, e1, e2, env)


def reconstruct_conditional(
    ctx: QKernelContext,
    table: PotentialTable,
    V,
    delta,
    sigma_rest: Mapping,
    eta_rest: Mapping,
    *,
    annealed: Callable | None = None,
) -> dict:
    """Conditional law on ``V`` from annealed terms plus table partial sums.

    The weight of a joint patch is exp(annealed weight minus the partial sum
    of the table over ``delta``); at ``delta`` equal to the full window this
    reproduces the exact conditional of the joint measure.  Returns
    ``{(spins, etas): probability}`` like the direct route.
    """
    Vset = V if isinstance(V, SiteSet) else SiteSet(V)
    sites = Vset.sites
    sigma_full = dict(ctx.frozen_sigma)
    for s in ctx.box.sites():
        if s in Vset:
            continue
        if s not in sigma_rest:
            raise ConfigError(f"conditioning spin missing at {s}")
        sigma_full[s] = sigma_rest[s]
    logw = {}
    for spins in product(ctx.spec.spin_values, repeat=len(sites)):
        for s, v in zip(sites, spins):
            sigma_full[s] = v
        for etas in product(ctx.spec.disorder_values, repeat=len(sites)):
            eta_full = ctx._merge(Vset, dict(zip(sites, etas)), eta_rest)
            if annealed is None:
                num = ctx.annealed_log_weight(Vset, sigma_full, eta_full)
            else:
                num = -sum(
                    annealed(A, sigma_full, eta_full)
                    for A in _annealed_sets(ctx, Vset)
                )
            logw[(spins, etas)] = num - partial_sum(table, Vset, delta, eta_full)
    peak = max(logw.values())
    weights = {k: math.exp(v - peak) for k, v in logw.items()}
    norm = sum(weights.values())
    return {k: w / norm for k, w in weights.items()}


def _annealed_sets(ctx: QKernelContext, Vset: SiteSet) -> list:
    sets = [A for A in ctx.term_sets if not Vset.isdisjoint(A)]
    have = {A.sites for A in sets}
    for x in Vset:
        if ((x,)) not in have:
            sets.append(SiteSet([x]))
    return sets


# ---------------------------------------------------------------------------
# centering
# ---------------------------------------------------------------------------


def center_potential(
    table: PotentialTable,
    law: Mapping,
    *,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
    batches: int = DEFAULT_BATCHES,
) -> PotentialTable:
    """Subtract from every entry its product-law average over the entry sites.

    Exact mode enumerates disorder patterns per entry; MC mode estimates the
    averages from seeded samples and attaches standard errors in the result
    metadata.  Symbolic occupied-product entries center in closed form.
    """
    out = PotentialTable(
        table.window_box or table.window_sites, alpha=table.alpha, meta=dict(table.meta)
    )
    stderrs = {}
    items = _law_items(law)
    values = [v for v, _ in items]
    probs = np.asarray([w for _, w in items])
    rng = np.random.default_rng([seed]) if seed is not None else None
    for A, entry in table.items():
        key = A.sites
        if isinstance(entry, ConstantEntry):
            out.set(key, ConstantEntry(0.0))
            continue
        if isinstance(entry, OccupiedProductEntry) and entry.center is None:
            p = dict(items).get(1, 0.0)
            out.set(key, OccupiedProductEntry(entry.coeff, center=p))
            continue
        if mode == "exact":
            mean = 0.0
            for assign, w in _product_assignments(key, law):
                mean += w * entry.value(key, assign)
        elif mode == "mc":
            if samples is None or rng is None:
                raise ConfigError("MC centering needs samples and seed")
            draws = rng.choice(len(values), size=(samples, len(key)), p=probs)
            vals = np.array(
                [
                    entry.value(key, {s: values[int(k)] for s, k in zip(key, row)})
                    for row in draws
                ]
            )
            est = batch_means(vals, batches)
            mean = est.value
            stderrs[str(list(map(list, key)))] = est.stderr
        else:
            raise ConfigError(f"unknown mode {mode!r}")
        k = len(items)
        tab = np.zeros(k ** len(key))
        for idx, combo in enumerate(product(values, repeat=len(key))):
            j = 0
            for pos in range(len(key)):
                j += values.index(combo[pos]) * k**pos
            tab[j] = entry.value(key, dict(zip(key, combo))) - mean
        out.set(key, TabulatedEntry(tab, values))
    if stderrs:
        out.meta["center_stderr"] = stderrs
    return out


def check_alpha_normalization(
    table: PotentialTable,
    alpha: NormalizingMeasure,
    law: Mapping | None = None,
    eta: Mapping | None = None,
) -> float:
    """Worst one-site average of any entry (zero for a normalized table).

    For a product measure, averages each entry over one site at a time with
    the other sites swept; for a point mass, evaluates each entry with one
    site at the vacuum value.  Returns the maximum absolute result.
    """
    worst = 0.0
    for A, entry in table.items():
        key = A.sites
        if isinstance(entry, ConstantEntry):
            worst = max(worst, abs(entry.v))
            continue
        if alpha.is_product:
            use_law = law if law is not None else dict(alpha.nu or {})
            if not use_law:
                raise ConfigError("need a law to average against")
            items = _law_items(use_law)
            for x in key:
                others = [s for s in key if s != x]
                for assign, _ in _product_assignments(others, dict(items)):
                    acc = 0.0
                    for v, w in items:
                        patch = dict(assign)
                        patch[x] = v
                        acc += w * entry.value(key, patch)
                    worst = max(worst, abs(acc))
        else:
            alphabet = entry.alphabet if isinstance(entry, TabulatedEntry) else (0, 1)
            for x in key:
                others = [s for s in key if s != x]
                for combo in product(alphabet, repeat=len(others)):
                    patch = dict(zip(others, combo))
                    patch[x] = alpha.vacuum_at(x)
                    worst = max(worst, abs(entry.value(key, patch)))
    return worst


# ---------------------------------------------------------------------------
# regrouping schemes
# ---------------------------------------------------------------------------


class RegroupingScheme:
    """Cells along a site order; every finite subset lands in one class.

    Interval cells take all sites whose rank lies in ``[rank(x), radii(rank(x)+m)]``
    along the order; shell cells take order-forward sites within distance m.
    """

    def __init__(self, kind: str, window, order: SiteOrder, radii=None):
        self.kind = kind
        if isinstance(window, Box):
            self.window_sites = tuple(window.sites())
        else:
            self.window_sites = tuple(sorted(as_site(s) for s in window))
        self.order = order
        self.rank = order.rank_map(self.window_sites)
        self.by_rank = {r: s for s, r in self.rank.items()}
        self.n = len(self.window_sites)
        if kind == "interval":
            if radii is None:
                raise SchemeError("interval scheme needs a radii sequence")
            if callable(radii):
                self._radii = radii
            else:
                seq = list(radii)
                self._radii = lambda k: seq[min(k, len(seq) - 1)]
            last = None
            for k in range(1, self.n + 1):
                val = int(self._radii(k))
                if val < k:
                    raise SchemeError(f"radii({k})={val} must be >= {k}")
                if last is not None and val < last:
                    raise SchemeError("radii sequence must be nondecreasing")
                last = val
        elif kind == "shell":
            self._radii = None
        else:
            raise SchemeError(f"unknown scheme kind {kind!r}")

    @classmethod
    def interval(cls, window, radii, order: SiteOrder | None = None) -> "RegroupingScheme":
        if order is None:
            order = SiteOrder.lexicographic()
        return cls("interval", window, order, radii)

    @classmethod
    def shell(cls, window) -> "RegroupingScheme":
        return cls("shell", window, SiteOrder.lexicographic())

    def radius(self, k: int) -> int:
        return min(int(self._radii(k)), self.n)

    def cell(self, x, m: int) -> SiteSet:
        x = as_site(x)
        if x not in self.rank:
            raise SchemeError(f"site {x} not in the scheme window")
        if self.kind == "interval":
            rx = self.rank[x]
            hi = self.radius(rx + m) if m > 0 else self.radius(rx)
            return SiteSet([self.by_rank[r] for r in range(rx, hi + 1)])
        out = [
            z
            for z in self.window_sites
            if z >= x and linf_dist(z, x) <= max(m, 0)
        ]
        return SiteSet(out)

    def classify(self, A) -> tuple:
        """The (x, m) class of a subset: base site and minimal covering cell."""
        key = _sites_key(A)
        if not key:
            raise SchemeError("cannot classify the empty set")
        for s in key:
            if s not in self.rank:
                raise SchemeError(f"site {s} not in the scheme window")
        if self.kind == "interval":
            x = min(key, key=lambda s: self.rank[s])
            top = max(self.rank[s] for s in key)
            m = 1
            while self.radius(self.rank[x] + m) < top:
                m += 1
                if m > self.n + 1:
                    raise SchemeError("radii never cover the window")
            return x, m
        x = min(key)
        m = max(max(linf_dist(s, x) for s in key), 1)
        return x, m

    def max_m(self, x) -> int:
        x = as_site(x)
        if self.kind == "interval":
            m = 1
            while self.radius(self.rank[x] + m) < self.n:
                m += 1
            return m
        return max(
            [max(linf_dist(z, x) for z in self.window_sites if z >= x)] + [1]
        )

    def validate(self) -> None:
        """Cells increase with m and exhaust the order-forward window."""
        for x in self.window_sites:
            prev = None
            top = self.max_m(x)
            for m in range(1, top + 1):
                c = self.cell(x, m)
                if x not in c:
                    raise SchemeError(f"cell ({x},{m}) misses its base site")
                if prev is not None and not prev.issubset(c):
                    raise SchemeError(f"cells of {x} are not nested at m={m}")
                prev = c
            forward = (
                SiteSet([z for z in self.window_sites if self.rank[z] >= self.rank[x]])
                if self.kind == "interval"
                else SiteSet([z for z in self.window_sites if z >= x])
            )
            if prev is None or not forward.issubset(prev):
                raise SchemeError(f"cells of {x} never exhaust the window")


class RegroupedTable(PotentialTable):
    """A potential produced by summing classes of entries onto cells."""

    def __init__(self, window, alpha: str, scheme: RegroupingScheme):
        super().__init__(window, alpha)
        self.scheme = scheme
        self.class_values: dict = {}
        self.class_cells: dict = {}


def regroup(
    table: PotentialTable, scheme: RegroupingScheme, eta: Mapping | None = None
) -> RegroupedTable:
    """Sum every entry into its scheme class; entries keyed by cell sets.

    Disorder-dependent tables are regrouped at the supplied ``eta``.  Two
    classes may share one cell set (interval radii can repeat); their values
    then accumulate on that set, while ``class_values`` keeps the breakdown.
    """
    out = RegroupedTable(
        table.window_box or table.window_sites, table.alpha, scheme
    )
    acc: dict = {}
    for A in table.support(eta):
        v = table.value(A, eta)
        x, m = scheme.classify(A)
        out.class_values[(x, m)] = out.class_values.get((x, m), 0.0) + v
        cell = scheme.cell(x, m)
        out.class_cells[(x, m)] = cell
        acc[cell.sites] = acc.get(cell.sites, 0.0) + v
    for key, v in acc.items():
        out.set(key, ConstantEntry(v))
    return out


def kozlov_regroup(
    table: PotentialTable, scheme: RegroupingScheme, eta: Mapping | None = None
) -> RegroupedTable:
    """Interval-cell resummation (order intervals of growing radius)."""
    if scheme.kind != "interval":
        raise SchemeError("expected an interval scheme")
    return regroup(table, scheme, eta)


def shell_regroup(
    table: PotentialTable, eta: Mapping | None = None
) -> RegroupedTable:
    """Shell-cell resummation along the lexicographic order."""
    if table.window_sites is None:
        raise SchemeError("table has no window to build shells on")
    scheme = RegroupingScheme.shell(table.window_box or table.window_sites)
    return regroup(table, scheme, eta)


def class_value_via_energy(
    scheme: RegroupingScheme,
    x,
    m: int,
    energy: Callable,
    eta: Mapping | None = None,
) -> float:
    """Class value from four energies of nested cells (no table needed).

    The sum of entries based at ``x`` inside a cell equals the cell energy
    minus the energy of the cell without ``x``; differencing consecutive
    cells isolates one class.  The m=1 class has no predecessor (it collects
    everything inside the first cell, the base singleton included).
    """
    x = as_site(x)

    def e(S: SiteSet) -> float:
        if len(S) == 0:
            return 0.0
        return energy(S) if eta is None else energy(S, {s: eta[s] for s in S})

    big = scheme.cell(x, m)
    small = scheme.cell(x, m - 1) if m > 1 else SiteSet([])
    big_wo = SiteSet([s for s in big if s != x])
    small_wo = SiteSet([s for s in small if s != x])
    return (e(big) - e(big_wo)) - (e(small) - e(small_wo))


# ---------------------------------------------------------------------------
# telescoping of the log-ratio
# ---------------------------------------------------------------------------


def telescope_logq(
    ctx: QKernelContext, V, eta: Mapping, eta_hat: Mapping, delta=None
) -> list:
    """Split a multi-site log-ratio into single-site flips, order-forward.

    Site i's term flips it from the hat value to the target value with
    earlier sites already flipped and later sites still at hat values; the
    terms sum exactly to the full log-ratio with disorder held at ``eta`` on
    ``delta`` and at ``eta_hat`` beyond.  Returns ``[(site, term), ...]`` in
    lexicographic order.
    """
    Vset = V if isinstance(V, SiteSet) else SiteSet(V)
    if delta is None:
        dset = SiteSet(ctx.eta_domain)
    else:
        dset = delta if isinstance(delta, SiteSet) else SiteSet(
            delta.sites() if isinstance(delta, Box) else delta
        )
    if not Vset.issubset(dset):
        raise ValueError("V must lie inside delta")
    env = {}
    for s in ctx.eta_domain:
        if s in Vset:
            continue
        env[s] = eta[s] if s in dset else eta_hat[s]
    out = []
    sites = Vset.sites
    for i, x in enumerate(sites):
        e1 = {x: eta[x]}
        e2 = {x: eta_hat[x]}
        local_env = dict(env)
        for j, y in enumerate(sites):
            if j < i:
                local_env[y] = eta[y]
            elif j > i:
                local_env[y] = eta_hat[y]
        out.append((x, ctx.log_q(SiteSet([x]), e1, e2, local_env)))
    return out


def pair_flip_bracket(
    ctx: QKernelContext,
    x,
    y,
    eta_pair: Mapping,
    eta_hat_pair: Mapping,
    env: Mapping,
    *,
    route: str = "logz",
) -> float:
    """Second difference of the log-ratio in two single-site flips.

    ``route='logz'`` forms it from four partition functions;
    ``route='expectation'`` composes three expectation-side ratios (the
    joint flip minus the two marginals).  The two routes agree to round-off
    and the value is the elementary term of shell-cell telescoping.
    """
    x, y = as_site(x), as_site(y)
    pair = SiteSet([x, y])
    e_full = {x: eta_pair[x], y: eta_pair[y]}
    e_hat = {x: eta_hat_pair[x], y: eta_hat_pair[y]}
    if route == "logz":
        e_xy = dict(e_hat)
        e_xy[x] = eta_pair[x]
        e_yx = dict(e_hat)
        e_yx[y] = eta_pair[y]
        return ctx.log_q(pair, e_full, e_hat, env) - ctx.log_q(
            pair, e_xy, e_hat, env
        ) - ctx.log_q(pair, e_yx, e_hat, env)
    if route == "expectation":
        lq_xy = ctx.log_q_via_expectation(pair, e_full, e_hat, env)
        lq_x = ctx.log_q_via_expectation(pair, {**e_hat, x: eta_pair[x]}, e_hat, env)
        lq_y = ctx.log_q_via_expectation(pair, {**e_hat, y: eta_pair[y]}, e_hat, env)
        return lq_xy - lq_x - lq_y
    raise ConfigError(f"unknown route {route!r}")


def shell_cell_terms(
    ctx: QKernelContext,
    scheme: RegroupingScheme,
    x,
    m: int,
    eta: Mapping,
    alpha: NormalizingMeasure,
    *,
    cap_bits: int = EXACT_INTEGRATION_CAP_BITS,
) -> list:
    """Per-site telescoping of one shell-cell value, exactly integrated.

    Returns ``[(y, term), ...]`` over the sites added by shell m; each term
    is the normalizing-measure average of a pair-flip second difference,
    and the terms sum to the class value of (x, m).  At m=1 the list starts
    with the bare single-site average (the base of the telescope).
    """
    x = as_site(x)
    big = scheme.cell(x, m)
    small = scheme.cell(x, m - 1) if m > 1 else SiteSet([x])
    new_sites = [y for y in big if y not in small]
    out = []
    if m == 1:
        base = relative_energy(ctx, SiteSet([x]), {x: eta[x]}, alpha, cap_bits=cap_bits)
        out.append((x, float(base)))
    if alpha.is_product:
        law = alpha.law(ctx.spec)
    for i, y in enumerate(new_sites):
        # disorder kept at eta on the smaller cell and earlier shell sites
        kept = [s for s in small if s != x] + new_sites[:i]
        free = [s for s in ctx.eta_domain if s != x and s != y and s not in kept]
        if alpha.is_product:
            bits = _integration_bits(len(free) + 2, law)
            if bits > cap_bits:
                raise CapExceededError(
                    "exact disorder integration", math.ceil(bits), cap_bits
                )
            acc = 0.0
            for assign, w in _product_assignments(free, law):
                for vx, wx in _law_items(law):
                    for vy, wy in _law_items(law):
                        env = {s: eta[s] for s in kept}
                        env.update(assign)
                        term = pair_flip_bracket(
                            ctx,
                            x,
                            y,
                            {x: eta[x], y: eta[y]},
                            {x: vx, y: vy},
                            env,
                        )
                        acc += w * wx * wy * term
            out.append((y, acc))
        else:
            env = {s: eta[s] for s in kept}
            for s in free:
                env[s] = alpha.vacuum_at(s)
            out.append(
                (
                    y,
                    pair_flip_bracket(
                        ctx,
                        x,
                        y,
                        {x: eta[x], y: eta[y]},
                        {x: alpha.vacuum_at(x), y: alpha.vacuum_at(y)},
                        env,
                    ),
                )
            )
    return out


# ---------------------------------------------------------------------------
# shell-truncation diagnostic
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceDiagnostic:
    """Truncation-error estimates of the single-site averaged log-ratio."""

    x: tuple
    radii: tuple
    epsilon: tuple
    stderr: tuple
    n_samples: int
    meta: dict = field(default_factory=dict)

    def rows(self) -> list:
        return [
            {
                "r": r,
                "epsilon": e,
                "stderr": s,
                "n_samples": self.n_samples,
            }
            for r, e, s in zip(self.radii, self.epsilon, self.stderr)
        ]

    def write_csv(self, fp) -> None:
        writer = csv.DictWriter(fp, fieldnames=["r", "epsilon", "stderr", "n_samples"])
        writer.writeheader()
        for row in self.rows():
            writer.writerow(row)


def epsilon_diagnostic(
    ctxs,
    x,
    radii: Sequence[int],
    *,
    samples: int = 1000,
    seed: int = 0,
    alpha: NormalizingMeasure | None = None,
    eta_x_value=None,
    batches: int = DEFAULT_BATCHES,
    inner_cap_bits: int = 14,
    inner_samples: int | None = None,
):
    """Estimate the truncation error of the averaged single-site log-ratio.

    For each radius r, the inner average over reference disorder is taken
    with the sampled environment kept only within distance r of ``x`` (and
    re-averaged beyond), and compared against the full-environment value;
    the estimate is the mean absolute difference over outer disorder
    samples, with batch-means errors.  Inner averages are exact when the
    free pattern count fits ``inner_cap_bits``, otherwise paired Monte
    Carlo with common reference draws across radii.

    Accepts one context or a sequence (a volume study); returns one
    diagnostic or a list.
    """
    if isinstance(ctxs, QKernelContext):
        return _epsilon_single(
            ctxs, x, radii, samples, seed, alpha, eta_x_value, batches,
            inner_cap_bits, inner_samples,
        )
    return [
        _epsilon_single(
            c, x, radii, samples, seed, alpha, eta_x_value, batches,
            inner_cap_bits, inner_samples,
        )
        for c in ctxs
    ]


def _epsilon_single(
    ctx: QKernelContext,
    x,
    radii,
    samples,
    seed,
    alpha,
    eta_x_value,
    batches,
    inner_cap_bits,
    inner_samples,
) -> ConvergenceDiagnostic:
    x = as_site(x)
    domain = ctx.eta_domain
    n = len(domain)
    pos = {s: i for i, s in enumerate(domain)}
    if x not in pos:
        raise ValueError(f"site {x} carries no disorder in this context")
    law = (alpha or NormalizingMeasure.product()).law(ctx.spec)
    items = _law_items(law)
    values = [v for v, _ in items]
    probs = np.asarray([w for _, w in items])
    k = len(values)
    if k**n <= 1 << inner_cap_bits:
        logz_table = np.empty(k**n)
        for code in range(k**n):
            assign = {}
            c = code
            for s in domain:
                assign[s] = values[c % k]
                c //= k
            logz_table[code] = ctx.log_partition_at(assign)
        lookup = lambda codes: logz_table[codes]
        exact_inner = True
    else:
        memo: dict = {}

        def lookup(codes):
            flat = np.atleast_1d(codes).ravel()
            out = np.empty(flat.shape)
            for i, code in enumerate(flat):
                v = memo.get(int(code))
                if v is None:
                    assign = {}
                    c = int(code)
                    for s in domain:
                        assign[s] = values[c % k]
                        c //= k
                    v = ctx.log_partition_at(assign)
                    memo[int(code)] = v
                out[i] = v
            return out.reshape(np.shape(codes))

        exact_inner = False

    strides = np.array([k**i for i in range(n)], dtype=np.int64)
    rng = np.random.default_rng([seed])
    outer = rng.choice(k, size=(samples, n), p=probs)
    if eta_x_value is not None:
        outer[:, pos[x]] = values.index(eta_x_value)
    outer_codes = outer @ strides

    # the full (untruncated) inner average: flip only the site itself
    base_wo_x = outer_codes - outer[:, pos[x]] * strides[pos[x]]
    full = lookup(outer_codes).astype(np.float64)
    for j in range(k):
        full -= probs[j] * lookup(base_wo_x + j * strides[pos[x]])

    def inner_patterns(free_idx):
        """Exact: all patterns and weights on the free positions."""
        f = len(free_idx)
        codes = np.zeros(k**f, dtype=np.int64)
        weights = np.ones(k**f)
        for pi, i in enumerate(free_idx):
            digit = (np.arange(k**f, dtype=np.int64) // k**pi) % k
            codes += digit * strides[i]
            weights *= probs[digit]
        return codes, weights

    eps = []
    errs = []
    for r in radii:
        near = [i for s, i in pos.items() if s != x and linf_dist(s, x) <= r]
        far = [i for s, i in pos.items() if s != x and linf_dist(s, x) > r]
        kept_mask = np.zeros(n, dtype=bool)
        kept_mask[near] = True
        base_kept = (outer * kept_mask) @ strides
        if exact_inner or k ** len(far) <= 1 << inner_cap_bits:
            far_codes, far_w = inner_patterns(far)
            x_term = outer[:, pos[x]] * strides[pos[x]]
            g = np.zeros(samples)
            for fj in range(far_codes.size):
                top = lookup(base_kept + x_term + far_codes[fj])
                bot = np.zeros(samples)
                for j in range(k):
                    bot += probs[j] * lookup(
                        base_kept + far_codes[fj] + j * strides[pos[x]]
                    )
                g += far_w[fj] * (top - bot)
        else:
            m = inner_samples or max(256, samples // 4)
            draws = rng.choice(k, size=(m, len(far)), p=probs)
            far_codes = draws @ strides[far] if far else np.zeros(m, dtype=np.int64)
            g = np.zeros(samples)
            for fj in range(m):
                top = lookup(base_kept + outer[:, pos[x]] * strides[pos[x]] + far_codes[fj])
                bot = np.zeros(samples)
                for j in range(k):
                    bot += probs[j] * lookup(
                        base_kept + far_codes[fj] + j * strides[pos[x]]
                    )
                g += (top - bot) / m
        diff = np.abs(g - full)
        est = batch_means(diff, batches)
        eps.append(est.value)
        errs.append(est.stderr)
    return ConvergenceDiagnostic(
        x=x,
        radii=tuple(int(r) for r in radii),
        epsilon=tuple(eps),
        stderr=tuple(errs),
        n_samples=samples,
        meta={
            "seed": seed,
            "exact_inner": bool(exact_inner),
            "box": ctx.box.to_json(),
            "eta_x_value": eta_x_value,
        },
    )


# ---------------------------------------------------------------------------
# dilute-model closed forms
# ---------------------------------------------------------------------------

ISING_ENUM_CAP = 20


def ising_free_log_partition(sites, J: float) -> float:
    """log of the free-boundary Ising partition function on a site set.

    Couplings ``-J s s'`` on nearest-neighbour pairs inside the set: the
    dilute model's own Hamiltonian with every site occupied, summed by the
    engine's exhaustive sweep and memoized per (sites, J).
    """
    key = _sites_key(sites)
    if not key:
        return 0.0
    if len(key) > ISING_ENUM_CAP:
        raise CapExceededError("Ising enumeration", len(key), ISING_ENUM_CAP)
    return _occupied_log_partition(key, float(J))


# bounded; the CLI's largest coefficient window (12 sites) reads 4095 subsets
@functools.lru_cache(maxsize=1 << 14)
def _occupied_log_partition(sites: tuple, J: float) -> float:
    # the occupation law p is irrelevant once every site is occupied
    ens = QuenchedEnsemble(make_dilute(J, 0.5), sites, {s: 1 for s in sites})
    return ens.log_partition("enumerate")


def dilute_vacuum_coeff(J: float, A, cap: int = ISING_ENUM_CAP) -> float:
    """Inclusion-exclusion coefficient of the dilute model's vacuum potential.

    The signed subset sum of ``log(Z0 / 2^{|subset|})`` over subsets of
    ``A``, with Z0 the fully-occupied free-boundary Ising normalization.
    Zero (to round-off) when ``A`` is disconnected or when no spanning
    interaction exists.
    """
    key = _sites_key(A)
    n = len(key)
    if n == 0:
        return 0.0
    if n > cap:
        raise CapExceededError("coefficient window", n, cap)
    J = float(J)
    log2 = math.log(2.0)
    total = 0.0
    # subsets of the sorted key are sorted: read the memo without re-keying
    for mask in range(1, 1 << n):
        sub = tuple(key[i] for i in range(n) if mask >> i & 1)
        sign = -1.0 if (n - len(sub)) % 2 else 1.0
        total += sign * (_occupied_log_partition(sub, J) - len(sub) * log2)
    return total


class ClusterPotentialTable(PotentialTable):
    """Occupied-component potential of the dilute model.

    A set value is the sum, over occupied components detected inside the
    set, of the component's free-boundary Ising log-normalization
    (occupation-normalized by default: minus |component| log 2).  A
    component is detected by the set exactly when the set is the
    component's closed neighbourhood within the window, which makes the
    value a function of the disorder on the set alone and puts every
    component of any configuration on exactly one set.
    """

    def __init__(self, J: float, window, eta: Mapping, normalized: bool = True):
        if isinstance(window, Box):
            super().__init__(window, alpha="vacuum:0")
        else:
            super().__init__(tuple(sorted(as_site(s) for s in window)), alpha="vacuum:0")
        self.J = float(J)
        self.normalized = bool(normalized)
        self.default_eta = {as_site(k): v for k, v in eta.items()}
        self._window_set = SiteSet(self.window_sites)

    def _closure(self, C: SiteSet) -> SiteSet:
        # nearest-neighbour closure, matching the model's pair adjacency
        out = set(C.sites)
        for s in C:
            for a in range(len(s)):
                for step in (-1, 1):
                    out.add(tuple(c + (step if i == a else 0) for i, c in enumerate(s)))
        return SiteSet(out) & self._window_set

    def _component_value(self, C: SiteSet) -> float:
        v = ising_free_log_partition(C.sites, self.J)
        if self.normalized:
            v -= len(C) * math.log(2.0)
        return v

    def value(self, A, eta: Mapping | None = None) -> float:
        eta = self.default_eta if eta is None else eta
        key = _sites_key(A)
        Aset = SiteSet(key)
        occupied = [s for s in key if eta[s] == 1]
        total = 0.0
        for C in connected_components(occupied):
            if self._closure(C).sites == key:
                total += self._component_value(C)
        return total

    def support(self, eta: Mapping | None = None) -> list:
        eta = self.default_eta if eta is None else eta
        occupied = [s for s in self.window_sites if eta.get(s) == 1]
        return [self._closure(C) for C in connected_components(occupied)]

    def materialize(self, eta: Mapping | None = None) -> PotentialTable:
        """A plain numeric table of this potential at one configuration."""
        eta = self.default_eta if eta is None else eta
        out = PotentialTable(
            self.window_box or self.window_sites, alpha=self.alpha,
            meta={"kind": "cluster", "J": self.J, "normalized": self.normalized},
        )
        for A in self.support(eta):
            out.set(A, ConstantEntry(self.value(A, eta)))
        return out

    def to_json(self) -> dict:
        out = self.materialize().to_json()
        out["meta"] = {
            "kind": "cluster",
            "J": self.J,
            "normalized": self.normalized,
        }
        return out


def cluster_potential(
    J: float, eta: Mapping, window=None, normalized: bool = True
) -> ClusterPotentialTable:
    """Occupied-component potential for the dilute model at a configuration.

    ``window`` defaults to the sites of ``eta``.  With ``normalized=True``
    (the default) each component carries ``log(Z0_C / 2^{|C|})``, which is
    the form whose partial sums match the factorized normalization of the
    dilute model; ``normalized=False`` stores the literal ``log Z0_C``.
    """
    if window is None:
        window = [as_site(s) for s in eta]
    return ClusterPotentialTable(J, window, eta, normalized)
