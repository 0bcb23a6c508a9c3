"""Interaction potentials for the joint (spin, disorder) measure.

The pipeline: a relative energy assigns to every disorder patch on a subset
of the working box the averaged log partition-function ratio against a
normalizing measure (a product law or a point mass at a vacuum
configuration; a point mass is the product of one-point laws at the
vacuum, so both kinds run one exact averaging route).  Its Möbius transform
over subsets of a window is a potential whose partial sums telescope back
to averaged log-ratios; feeding those partial sums into the annealed
weights reconstructs the conditional law of the joint measure.  Both
identities read a table one way only: :meth:`PotentialTable.value` over
its support, in support order.
Resummation schemes regroup the potential into cells along a site order,
and a shell diagnostic estimates how fast the single-site averaged
log-ratio localizes.

Everything here is finite-volume.  Relative energies, tables and identity
checks integrate the disorder exactly (exhaustively, under a cap); only the
truncation diagnostic samples, from the package's one disorder stream, with
batch-means error bars.  A relative-energy table reads log Z once per
disorder code it needs and forms every subset's energy row by array
operations on that vector; the rows equal the scalar route,
:func:`relative_energy`, bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from . import engine
from .disorder import DisorderSampler
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
from .qkernel import QKernelContext, _pattern_digits
from .quenched import QuenchedEnsemble
from .stats import DEFAULT_BATCHES, batch_means

EXACT_INTEGRATION_CAP_BITS = 20
TABULATION_CAP_BITS = 22


# ---------------------------------------------------------------------------
# normalizing measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizingMeasure:
    """Either a per-site product law or a point mass at a vacuum field.

    A point mass is the product of one-point laws: :meth:`law` returns
    ``{vacuum_fill: 1.0}`` for it, so every exact average runs the same loop
    for both kinds, sweeping a single pattern at weight 1.0.
    """

    kind: str  # "product" | "point"
    nu: tuple | None = None  # ((value, weight), ...) for product
    vacuum_fill: object = None  # the vacuum value at every site, for point

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
    def point_mass(cls, fill) -> "NormalizingMeasure":
        """Point mass at the configuration equal to ``fill`` at every site."""
        if fill is None:
            raise ConfigError("point mass needs a fill value")
        return cls("point", vacuum_fill=fill)

    @property
    def is_product(self) -> bool:
        return self.kind == "product"

    def law(self, spec) -> dict:
        """The per-site law as a dict; a point mass is the one-point law at its fill."""
        if not self.is_product:
            return {self.vacuum_fill: 1.0}
        if self.nu is not None:
            return dict(self.nu)
        return dict(spec.nu)

    def tag(self) -> str:
        if self.is_product:
            return "product"
        return f"vacuum:{self.vacuum_fill}"


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


def _check_integration(n_sites: int, law: Mapping) -> None:
    """Refuse an exact average over ``n_sites`` whose k^n patterns exceed the cap.

    A one-point law sweeps one pattern, 0 bits, at any size.
    """
    bits = n_sites * math.log2(len(_law_items(law)))
    if bits > EXACT_INTEGRATION_CAP_BITS:
        raise CapExceededError(
            "exact disorder integration", math.ceil(bits), EXACT_INTEGRATION_CAP_BITS
        )


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
) -> float:
    """Averaged log-ratio of partition functions for a disorder patch.

    Integrates the reference configuration out exactly against the per-site
    law, refusing domains above ``EXACT_INTEGRATION_CAP_BITS``; against a
    point mass (a one-point law) the average is the single log-ratio to the
    vacuum.
    """
    Vset = V if isinstance(V, SiteSet) else SiteSet(V)
    if len(Vset) == 0:
        return 0.0
    if not Vset.issubset(ctx.box):
        raise ValueError(f"patch {Vset.sites} is not inside the box")

    law = alpha.law(ctx.spec)
    rest = [s for s in ctx.eta_domain if s not in Vset]
    _check_integration(len(ctx.eta_domain), law)
    acc = 0.0
    for assign, w in _product_assignments(rest, law):
        for s in Vset:
            assign[s] = eta_V[s]
        acc += w * ctx.log_partition_at(assign)
    return acc - _mean_log_partition(ctx, law)


# ---------------------------------------------------------------------------
# potential tables
# ---------------------------------------------------------------------------


def _law_tensor(entry: "TabulatedEntry", m: int, values: Sequence) -> np.ndarray:
    """An entry's values on ``values`` at each of its ``m`` sites; axis j is the j-th site."""
    digits = [entry.alphabet.index(v) for v in values]
    return entry.values.reshape((len(entry.alphabet),) * m, order="F")[np.ix_(*[digits] * m)]


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


def _entry_from_json(blob: dict):
    if "value" in blob:
        return ConstantEntry(blob["value"])
    if "values" in blob:
        alphabet = [v if not isinstance(v, list) else tuple(v) for v in blob["alphabet"]]
        return TabulatedEntry(blob["values"], alphabet)
    raise ConfigError(f"unknown potential entry {blob!r}")


class PotentialTable:
    """Finite-support potential on subsets of a window.

    Entries are constants or per-pattern tables; :meth:`value` evaluates
    either at a disorder configuration.  An entry is read-only once set.
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
        self._sets: dict = {}  # key -> its SiteSet, built once
        self._order: list | None = None  # sorted keys, dropped when a key is added

    def set(self, A, entry) -> None:
        key = _sites_key(A)
        if self.window_sites is not None:
            window = frozenset(self.window_sites)
            missing = [s for s in key if s not in window]
            if missing:
                raise WindowMismatchError(f"sites {missing} outside the window")
        if not isinstance(entry, (ConstantEntry, TabulatedEntry)):
            entry = ConstantEntry(float(entry))
        if key not in self._sets:
            self._sets[key] = A if isinstance(A, SiteSet) else SiteSet(key)
            self._order = None
        self._entries[key] = entry

    def _sorted_keys(self) -> list:
        if self._order is None:
            self._order = sorted(self._entries)
        return self._order

    def entry(self, A):
        return self._entries.get(_sites_key(A))

    def value(self, A, eta: Mapping | None = None) -> float:
        key = _sites_key(A)
        e = self._entries.get(key)
        if e is None:
            return 0.0
        return e.value(key, eta)

    def support(self, eta: Mapping | None = None) -> list:
        return [self._sets[k] for k in self._sorted_keys()]

    def items(self):
        return [(self._sets[k], self._entries[k]) for k in self._sorted_keys()]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, A) -> bool:
        return _sites_key(A) in self._entries

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


def _transform_sites(window, disorder_values: Sequence | None = None) -> tuple:
    """The window's sites in bit order, once the transform's caps admit it."""
    if isinstance(window, Box):
        sites = tuple(window.sites())
    else:
        sites = tuple(sorted(as_site(s) for s in window))
    n = len(sites)
    if n > SUBSET_ENUMERATION_CAP:
        raise CapExceededError("subset transform window", n, SUBSET_ENUMERATION_CAP)
    if disorder_values is not None:
        bits = n + n * math.log2(len(disorder_values))
        if bits > TABULATION_CAP_BITS:
            raise CapExceededError(
                "tabulated subset transform", math.ceil(bits), TABULATION_CAP_BITS
            )
    return sites


def _butterfly(vals: np.ndarray) -> None:
    """In-place signed subset sums over the leading axis of 2^n bitmask rows."""
    n = len(vals).bit_length() - 1
    for i in range(n):
        # rows with bit i set, less the same row without it
        pairs = vals.reshape(1 << (n - 1 - i), 2, 1 << i, -1)
        pairs[:, 1] -= pairs[:, 0]


def mobius_potential(
    window,
    energy: Callable,
    *,
    disorder_values: Sequence | None = None,
    alpha_tag: str = "",
) -> PotentialTable:
    """Inclusion-exclusion transform of ``energy`` over subsets of a window.

    ``energy(SiteSet) -> float`` yields a fixed-disorder table.  With
    ``disorder_values`` (an alphabet of k values) the table is tabulated over
    disorder patterns per subset: ``energy(SiteSet)`` then returns an array
    of k^|A| values, one per pattern on the subset's sites, with the first
    site's digit fastest and digits indexing ``disorder_values``.  The
    signed subset sums are evaluated by a dense in-place butterfly over
    bitmasks, so the inverse identity (subset sums of entries recover the
    energy) holds to round-off.
    """
    sites = _transform_sites(window, disorder_values)
    n = len(sites)
    table = PotentialTable(window, alpha_tag)
    subsets = [
        SiteSet([sites[i] for i in range(n) if mask >> i & 1]) for mask in range(1 << n)
    ]

    if disorder_values is None:
        vals = np.zeros(1 << n)
        for mask in range(1, 1 << n):
            vals[mask] = energy(subsets[mask])
        _butterfly(vals)
        for mask in range(1, 1 << n):
            table.set(subsets[mask], ConstantEntry(vals[mask]))
        return table

    # one row per subset over every pattern of the window (first site fastest)
    k = len(disorder_values)
    digit = _pattern_digits(k, n)
    place = k ** np.arange(n, dtype=np.int64)
    vals = np.zeros((1 << n, k**n))
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        # each window pattern reads the subset's pattern on the member digits
        local = np.asarray(energy(subsets[mask]), dtype=np.float64)
        vals[mask] = local[place[: len(members)] @ digit[members]]
    _butterfly(vals)
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        # and back: the window pattern with the subset's digits, zero elsewhere
        m = len(members)
        values = vals[mask][place[members] @ digit[:m, : k**m]]
        table.set(subsets[mask], TabulatedEntry(values, disorder_values))
    return table


def relative_energy_table(
    ctx: QKernelContext,
    alpha: NormalizingMeasure,
    *,
    window=None,
) -> PotentialTable:
    """Möbius potential of this context's relative energy over its window.

    Every cap is checked before any log Z is read.  Then each disorder code
    the table needs is read once, through :meth:`QKernelContext.log_partition_at`,
    into a dense vector: every alphabet value on the window, and off it the
    law's values (a point mass reads only the vacuum there, so k^|window|
    codes).  A subset's row over its patterns is the weighted sum over the
    rest of the domain in :func:`relative_energy`'s order (``itertools.product``
    order, weights multiplied left to right, added one by one from 0.0) less
    :func:`_mean_log_partition`, which makes the table's rows bit-equal to
    the scalar route.
    """
    window = window if window is not None else ctx.box
    values = ctx.spec.disorder_values
    sites = _transform_sites(window, values)
    if not SiteSet(sites).issubset(ctx.box):
        raise ValueError(f"window {sites} is not inside the box")
    domain = ctx.eta_domain
    law = alpha.law(ctx.spec)
    _check_integration(len(domain), law)
    items = _law_items(law)

    # domain site s takes a digit over choices[s], the first site fastest
    on_window = set(sites)
    law_values = [v for v, _ in items]
    choices = [values if s in on_window else law_values for s in domain]
    logz = np.array([
        ctx.log_partition_at(dict(zip(domain, reversed(combo))))
        for combo in product(*reversed(choices))
    ])
    mean = _mean_log_partition(ctx, law)
    # index into logz: each site's digit times the radix below it
    radix, law_place = {}, {}
    below = 1
    for s, c in zip(domain, choices):
        radix[s] = below
        law_place[s] = np.array([c.index(v) for v in law_values]) * below
        below *= len(c)
    weights = np.array([w for _, w in items])
    k, q = len(values), len(items)

    def rows(A: SiteSet) -> np.ndarray:
        digit = _pattern_digits(k, len(A))
        at = np.zeros(k ** len(A), dtype=np.int64)
        for pos, s in enumerate(A):
            at += digit[pos] * radix.get(s, 0)
        # rest patterns in itertools.product order: the first rest site slowest
        rest = [s for s in domain if s not in A]
        rdigit = _pattern_digits(q, len(rest))[::-1]
        w = np.ones(q ** len(rest))
        off = np.zeros(q ** len(rest), dtype=np.int64)
        for i, s in enumerate(rest):
            w *= weights[rdigit[i]]
            off += law_place[s][rdigit[i]]
        # row 0 is the 0.0 the scalar route's sum starts from
        terms = np.zeros((len(w) + 1, len(at)))
        np.multiply(w[:, None], logz[off[:, None] + at], out=terms[1:])
        return np.add.accumulate(terms, axis=0)[-1] - mean

    return mobius_potential(window, rows, disorder_values=values, alpha_tag=alpha.tag())


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
    lhs = 0.0
    for assign, w in _product_assignments(fill, alpha.law(ctx.spec)):
        patch = dict(assign)
        for s in Vset:
            patch[s] = eta_V[s]
        lhs += w * relative_energy(ctx, dset, patch, alpha)
    rhs = relative_energy(ctx, Vset, eta_V, alpha)
    if len(Vset) == 0:
        rhs = 0.0
    return lhs - rhs


def _summation_region(table: PotentialTable, delta) -> SiteSet:
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
    return dset


def partial_sum(table: PotentialTable, V, delta, eta: Mapping | None = None) -> float:
    """Sum of entries inside ``delta`` that meet ``V``, in support order.

    Runs over ``table.support(eta)`` from 0.0 and adds :meth:`PotentialTable.value`
    at ``eta`` for each entry it keeps, so a table whose entries depend on
    the configuration (a :class:`ClusterPotentialTable`) sums its own.
    """
    Vset = V if isinstance(V, SiteSet) else SiteSet(V)
    dset = _summation_region(table, delta)
    total = 0.0
    for A in table.support(eta):
        if not Vset.isdisjoint(A) and A.issubset(dset):
            total += table.value(A, eta)
    return total


def partial_sum_expected(
    ctx: QKernelContext,
    V,
    delta,
    eta: Mapping,
    alpha: NormalizingMeasure,
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
    law = alpha.law(ctx.spec)
    _check_integration(len(Vset) + len(far), law)
    total = 0.0
    for assign, w in _product_assignments(list(Vset) + far, law):
        env = {s: eta[s] for s in mid}
        for s in far:
            env[s] = assign[s]
        e1 = {s: eta[s] for s in Vset}
        e2 = {s: assign[s] for s in Vset}
        total += w * ctx.log_q(Vset, e1, e2, env)
    return total


def reconstruct_conditional(
    ctx: QKernelContext,
    table: PotentialTable,
    V,
    delta,
    sigma_rest: Mapping,
    eta_rest: Mapping,
) -> dict:
    """Conditional law on ``V`` from annealed terms plus table partial sums.

    The weights of :meth:`QKernelContext.joint_conditional` (terms from the
    context's tables, 0 where the law does not charge the patch), with
    :func:`partial_sum` of the table over ``delta`` at each patch code's
    disorder in place of log Z.  At ``delta`` equal to the full window this
    reproduces the exact conditional of the joint measure.  Returns
    ``{(spins, etas): probability}`` like the direct route.
    """
    Vset = ctx._check_window(V)
    dset = _summation_region(table, delta)

    def deflate(codes: np.ndarray) -> np.ndarray:
        sums = [partial_sum(table, Vset, dset, ctx.eta_of(c)) for c in codes.flat]
        return np.reshape(sums, codes.shape)

    return ctx._conditional_at(Vset, sigma_rest, eta_rest, deflate)


# ---------------------------------------------------------------------------
# centering
# ---------------------------------------------------------------------------


def center_potential(table: PotentialTable, law: Mapping) -> PotentialTable:
    """Subtract from every entry its product-law average over the entry sites.

    Each entry is read as a k^m tensor over the law's values, one axis per
    site; the mean is one contraction with the product weights, summed in
    ``product`` order from 0.0 with each weight multiplied left to right,
    and the centered entry is tabulated over the law's values.
    """
    out = PotentialTable(
        table.window_box or table.window_sites, alpha=table.alpha, meta=dict(table.meta)
    )
    values, weights = zip(*_law_items(law))
    for A, entry in table.items():
        if isinstance(entry, ConstantEntry):
            out.set(A, ConstantEntry(0.0))
            continue
        tensor = _law_tensor(entry, len(A), values)
        w = functools.reduce(np.multiply.outer, [weights] * len(A), np.ones(()))
        mean = np.add.accumulate(np.append(0.0, (w * tensor).ravel()))[-1]
        out.set(A, TabulatedEntry(tensor.ravel(order="F") - mean, values))
    return out


def check_alpha_normalization(
    table: PotentialTable,
    alpha: NormalizingMeasure,
    law: Mapping | None = None,
) -> float:
    """Worst one-site average of any entry (zero for a normalized table).

    Averages each entry over one site at a time against the law (``law``,
    else the measure's own; a point mass averages against its one-point law
    at the vacuum and ignores ``law``), with the other sites over the
    entry's whole alphabet.  The average on one site cancels whatever the
    other sites hold, so a value the law does not charge is checked too.
    Returns the maximum absolute result.
    """
    if not alpha.is_product:
        law = {alpha.vacuum_fill: 1.0}
    elif law is None:
        law = dict(alpha.nu or {})
    items = _law_items(law)
    worst = 0.0
    for A, entry in table.items():
        if isinstance(entry, ConstantEntry):
            worst = max(worst, abs(entry.v))
            continue
        tensor = _law_tensor(entry, len(A), entry.alphabet)
        for axis in range(len(A)):
            acc = 0.0
            for v, w in items:
                acc = acc + w * tensor.take(entry.alphabet.index(v), axis=axis)
            worst = max(worst, float(np.abs(acc).max()))
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
        base = relative_energy(ctx, SiteSet([x]), {x: eta[x]}, alpha)
        out.append((x, float(base)))
    law = alpha.law(ctx.spec)
    for i, y in enumerate(new_sites):
        # disorder kept at eta on the smaller cell and earlier shell sites
        kept = [s for s in small if s != x] + new_sites[:i]
        free = [s for s in ctx.eta_domain if s != x and s != y and s not in kept]
        _check_integration(len(free) + 2, law)
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


# inner averages enumerate the free disorder patterns up to this many bits
EXACT_INNER_BITS = 14


def epsilon_diagnostic(
    ctx: QKernelContext,
    x,
    radii: Sequence[int],
    *,
    samples: int = 1000,
    seed: int = 0,
    alpha: NormalizingMeasure | None = None,
    eta_x_value=None,
    batches: int = DEFAULT_BATCHES,
) -> ConvergenceDiagnostic:
    """Estimate the truncation error of the averaged single-site log-ratio.

    For each radius r, the inner average over reference disorder is taken
    with the sampled environment kept only within distance r of ``x`` (and
    re-averaged beyond), and compared against the full-environment value;
    the estimate is the mean absolute difference over outer disorder
    samples, with batch-means errors.  Inner averages are exact when the
    free pattern count fits ``EXACT_INNER_BITS``, otherwise paired Monte
    Carlo with common reference draws across radii.  Outer and reference
    draws are consecutive blocks of one :class:`DisorderSampler` stream.
    """
    x = as_site(x)
    alpha = alpha or NormalizingMeasure.product()
    if not alpha.is_product:
        # the outer draws come from the law, and a point mass draws only the vacuum
        raise ConfigError("not a product measure")
    law = alpha.law(ctx.spec)
    sampler = DisorderSampler(law, ctx.eta_domain, seed)
    n = len(ctx.eta_domain)
    pos = {s: i for i, s in enumerate(ctx.eta_domain)}
    if x not in pos:
        raise ValueError(f"site {x} carries no disorder in this context")
    probs = sampler.probs
    k = len(sampler.values)
    exact_inner = k**n <= 1 << EXACT_INNER_BITS
    # sampler digits index the law's support; codes index the alphabet
    alphabet = ctx.spec.disorder_values
    to_alphabet = np.array([alphabet.index(v) for v in sampler.values], dtype=np.int64)
    # a small domain reads every code once; a larger one reads what it uses
    if ctx.n_codes <= 1 << EXACT_INNER_BITS:
        lookup = ctx.logz(np.arange(ctx.n_codes)).__getitem__
    else:
        lookup = ctx.logz

    strides = ctx.strides()
    x_stride = strides[pos[x]]
    outer = to_alphabet[sampler.digits(0, samples)]
    if eta_x_value is not None:
        outer[:, pos[x]] = alphabet.index(eta_x_value)
    outer_codes = outer @ strides
    x_term = outer[:, pos[x]] * x_stride
    # reference draws, shared by every radius whose inner average is sampled
    ref = None if exact_inner else to_alphabet[sampler.digits(samples, max(256, samples // 4))]

    # the full (untruncated) inner average: flip only the site itself
    base_wo_x = outer_codes - x_term
    full = lookup(outer_codes).astype(np.float64)
    for j in range(k):
        full -= probs[j] * lookup(base_wo_x + to_alphabet[j] * x_stride)

    def inner_patterns(free_idx):
        """Exact: all patterns and weights on the free positions."""
        f = len(free_idx)
        codes = np.zeros(k**f, dtype=np.int64)
        weights = np.ones(k**f)
        for pi, i in enumerate(free_idx):
            digit = (np.arange(k**f, dtype=np.int64) // k**pi) % k
            codes += to_alphabet[digit] * strides[i]
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
        if k ** len(far) <= 1 << EXACT_INNER_BITS:
            far_codes, far_w = inner_patterns(far)
        else:
            far_codes = ref[:, far] @ strides[far]
            far_w = np.full(far_codes.size, 1.0 / far_codes.size)
        g = np.zeros(samples)
        for fj in range(far_codes.size):
            top = lookup(base_kept + x_term + far_codes[fj])
            bot = np.zeros(samples)
            for j in range(k):
                bot += probs[j] * lookup(base_kept + far_codes[fj] + to_alphabet[j] * x_stride)
            g += far_w[fj] * (top - bot)
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
    return engine.log_partition_enumerate(ens.compile())


def dilute_vacuum_coeff(J: float, A) -> float:
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
    if n > ISING_ENUM_CAP:
        raise CapExceededError("coefficient window", n, ISING_ENUM_CAP)
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
