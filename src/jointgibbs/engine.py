"""Exhaustive spin sums and the strip transfer-matrix accelerator.

A spin system is compiled to a flat term list: term ``t`` touches a tuple of
free-site indices and carries a value table over the joint local spin states
(first listed site = least significant digit, alphabet size ``q``).  The
partition function is then a sum over all ``q^n`` configurations of
``exp(-E)``, always accumulated in log space.

The exhaustive sweep is chunked numpy: it gathers term tables over blocks
of configuration codes and rescales its running sums whenever a block lowers
the minimum energy.  Where a block reads each table depends only on the
term sites, so a sweep that fits in one block keeps that index for the last
geometry it saw.  So does the transfer matrix, with its column plan and one
gather index per column into the concatenated term tables: a column's
energies are one gather and one sum over its terms.

Many systems that share one box can also be summed together: when each
term's table is one of a few rows spread over all configurations, a block of
systems is a one-hot matrix times that row table, followed by a log-sum-exp
per system (:func:`log_partition_rows`).

The transfer matrix handles 1D chains and 2D strips (state = one column of
spins, capped at 64 states); it is an accelerator for large boxes, never the
source of truth — cross-checks against enumeration live in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapExceededError

ENUMERATION_CAP = 22  # max free spins for exhaustive enumeration (q=2)
TM_THRESHOLD = 18  # log_partition tries the transfer matrix above this many spins
TM_STATE_CAP = 64  # max q^width for the transfer matrix
_NUMPY_CHUNK = 1 << 16

# There is no numba backend.  The committed benchmark's worker still reads
# these two names for its environment record; they go with the next change
# to the benchmark.
HAS_NUMBA = False


def numba_enabled() -> bool:
    return False


def normalize_term(q: int, sites: Sequence[int], table) -> tuple:
    """``(sites, table)`` with the sites ascending and the table reindexed to match.

    The table becomes a flat contiguous float64 array of length
    ``q**len(sites)``; a term without sites keeps its table, whose first
    entry is the constant it adds.
    """
    table = np.asarray(table, dtype=np.float64).ravel()
    if not sites:
        return (), table
    given = tuple(int(s) for s in sites)
    sites_sorted = tuple(sorted(given))
    if len(set(sites_sorted)) != len(sites_sorted):
        raise ValueError(f"duplicate site in term: {sites}")
    if table.size != q ** len(sites_sorted):
        raise ValueError("term table size mismatch")
    if given != sites_sorted:
        # reindex the table to the ascending site order
        order = sorted(range(len(given)), key=given.__getitem__)
        src = table.reshape((q,) * len(given), order="F")
        table = np.ascontiguousarray(src.transpose(order)).reshape(-1, order="F").copy()
    return sites_sorted, np.ascontiguousarray(table)


@dataclass
class CompiledSystem:
    """A spin Hamiltonian flattened to per-term local energy tables.

    Attributes
    ----------
    n_sites : int
        Number of free spins.
    q : int
        Spin alphabet size; configuration codes run over ``q**n_sites``.
    term_sites : list of tuple of int
        Free-site indices per term, ascending.
    term_tables : list of numpy arrays
        Flat energy table per term, length ``q**len(sites)``; local code is
        ``sum(digit[j] * q**j)`` over the term's site order.
    const : float
        Configuration-independent energy offset.
    site_coords : list of coordinate tuples, optional
        Geometry used by the transfer-matrix planner.
    """

    n_sites: int
    q: int
    term_sites: list = field(default_factory=list)
    term_tables: list = field(default_factory=list)
    const: float = 0.0
    site_coords: list | None = None

    def add_term(self, sites: Sequence[int], table) -> None:
        self.add_normalized(*normalize_term(self.q, sites, table))

    def add_normalized(self, sites: tuple, table: np.ndarray) -> None:
        """Append a term in the form :func:`normalize_term` returns."""
        if not sites:
            self.const += float(table[0])
            return
        self.term_sites.append(sites)
        self.term_tables.append(table)

    def extended(self, other: "CompiledSystem") -> "CompiledSystem":
        """This system plus the terms of ``other`` (same site indexing)."""
        if other.n_sites != self.n_sites or other.q != self.q:
            raise ValueError("incompatible systems")
        out = CompiledSystem(
            self.n_sites,
            self.q,
            list(self.term_sites) + list(other.term_sites),
            list(self.term_tables) + list(other.term_tables),
            self.const + other.const,
            self.site_coords,
        )
        return out


# ---------------------------------------------------------------------------
# observables: products of per-site functions prod_j val[j][digit(site_j)]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductObservable:
    """Observable of the form prod over listed sites of value[digit]."""

    sites: tuple
    values: tuple  # one length-q array per site

    @classmethod
    def of(cls, sites: Sequence[int], values) -> "ProductObservable":
        vals = tuple(np.asarray(v, dtype=np.float64) for v in values)
        return cls(tuple(int(s) for s in sites), vals)


# ---------------------------------------------------------------------------
# exhaustive sweep
# ---------------------------------------------------------------------------


def _term_codes(q: int, term_sites: tuple, start: int, stop: int):
    """Yield, per term, where configurations ``start..stop`` read the term tables.

    Positions are into the concatenation of all term tables: the term's
    offset in it plus its local code.
    """
    codes = np.arange(start, stop, dtype=np.int64)
    digits: dict = {}
    offset = 0
    for sites in term_sites:
        idx = np.full(codes.shape, offset, dtype=np.int64)
        stride = 1
        for s in sites:
            d = digits.get(s)
            if d is None:
                d = digits[s] = (codes // q**s) % q
            idx += d * stride
            stride *= q
        yield idx
        offset += stride


# geometry and index of the last single-chunk sweep: every sweep of one
# context has the same terms, and one slot bounds what the process keeps
_last_index: list = [None, None]


def _sweep_index(q: int, n: int, term_sites: tuple) -> np.ndarray:
    """The rows of :func:`_term_codes` over all ``q**n`` configurations.

    One read-only (terms, configurations) array, rebuilt only when the
    geometry differs from the last call's.
    """
    geometry = (q, n, term_sites)
    if _last_index[0] != geometry:
        _last_index[:] = [None, None]  # free the old index before building
        # intp, not int32: numpy casts any other index dtype on every
        # gather, which doubled the sweep's gather time
        index = np.empty((len(term_sites), q**n), dtype=np.intp)
        for row, idx in zip(index, _term_codes(q, term_sites, 0, q**n)):
            row[:] = idx
        index.flags.writeable = False
        _last_index[:] = [geometry, index]
    return _last_index[1]


def sweep(
    system: CompiledSystem,
    observables: Sequence[ProductObservable] = (),
):
    """Exhaustive sweep over all configurations; refuses oversized systems.

    Returns ``(log_z, expectations)`` where ``expectations[k]`` is the Gibbs
    expectation of the k-th product observable.
    """
    bits = system.n_sites * math.log2(system.q)
    if bits > ENUMERATION_CAP:
        raise CapExceededError("spin enumeration", math.ceil(bits), ENUMERATION_CAP)
    if system.n_sites == 0:
        return -system.const, [1.0 for _ in observables]
    q, n = system.q, system.n_sites
    total = q**n
    ref = math.inf  # running minimum energy (log-sum-exp reference)
    sz = 0.0
    sf = np.zeros(len(observables), dtype=np.float64)
    term_sites = tuple(system.term_sites)
    tables = np.concatenate(system.term_tables) if term_sites else np.empty(0)
    for start in range(0, total, _NUMPY_CHUNK):
        stop = min(start + _NUMPY_CHUNK, total)
        # const first, then the terms in order: the same sums as term by term
        e = np.full(stop - start, system.const)
        if total <= _NUMPY_CHUNK:
            index = _sweep_index(q, n, term_sites)
        else:
            index = _term_codes(q, term_sites, start, stop)
        for idx in index:
            e += tables[idx]
        m = float(e.min())
        if m < ref:
            scale = math.exp(m - ref) if math.isfinite(ref) else 0.0
            sz *= scale
            sf *= scale
            ref = m
        w = np.exp(ref - e)
        sz += float(w.sum())
        if observables:
            codes = np.arange(start, stop, dtype=np.int64)
        for k, obs in enumerate(observables):
            f = np.ones(codes.shape, dtype=np.float64)
            for s, vals in zip(obs.sites, obs.values):
                f *= vals[(codes // q**s) % q]
            sf[k] += float(w @ f)
    log_z = -ref + math.log(sz)
    return log_z, [s / sz for s in sf]


def log_partition_enumerate(system: CompiledSystem) -> float:
    return sweep(system)[0]


# ---------------------------------------------------------------------------
# batched sums over a shared row table
# ---------------------------------------------------------------------------


def spread_tables(q: int, n: int, sites: tuple, tables) -> np.ndarray:
    """Each table of one term read at all ``q**n`` configurations, one row per table.

    ``sites`` and the tables are in the form :func:`normalize_term` returns;
    a term without sites reads its first entry, the constant, everywhere.
    """
    idx = next(_term_codes(q, (sites,), 0, q**n))
    return np.stack([t[idx] for t in tables])


def log_partition_rows(rows: np.ndarray, count: int, picks) -> np.ndarray:
    """log Z of ``count`` systems whose energies are sums of rows of ``rows``.

    ``rows`` is (n_rows, configurations), at most one chunk of
    configurations.  System ``i`` has the energy row 0 plus the rows
    ``picks(start, stop)[i - start]``, distinct and never 0.  Each chunk of
    systems is one one-hot matrix times ``rows``, then an in-place
    log-sum-exp per system; a chunk holds at most ``_NUMPY_CHUNK`` energies.
    Energies must be finite: the product turns an infinite one into NaN.
    """
    n_rows, n_configs = rows.shape
    if n_configs > _NUMPY_CHUNK:
        raise ValueError(f"{n_configs} configurations do not fit one chunk")
    per = _NUMPY_CHUNK // n_configs
    out = np.empty(count)
    energies = np.empty((min(per, count), n_configs))  # one buffer for every chunk
    for start in range(0, count, per):
        stop = min(start + per, count)
        one_hot = np.zeros((stop - start, n_rows))
        one_hot[:, 0] = 1.0
        one_hot[np.arange(stop - start)[:, None], picks(start, stop)] = 1.0
        e = np.matmul(one_hot, rows, out=energies[: stop - start])
        low = e.min(axis=1)
        np.subtract(low[:, None], e, out=e)
        np.exp(e, out=e)
        out[start:stop] = np.log(e.sum(axis=1)) - low
    return out


# ---------------------------------------------------------------------------
# transfer matrix for chains / narrow strips
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferPlan:
    axis: int
    columns: tuple  # per column: tuple of free-site indices (ascending)


def plan_transfer(system: CompiledSystem):
    """Column decomposition usable by the transfer matrix, or None.

    Requires site coordinates; tries each axis and accepts the first along
    which every term spans at most two *adjacent* columns and every column
    has at most ``TM_STATE_CAP`` states.
    """
    coords = system.site_coords
    if coords is None or system.n_sites == 0:
        return None
    return _plan(system.q, tuple(map(tuple, coords)), tuple(system.term_sites))


@functools.lru_cache(maxsize=1)
def _plan(q: int, coords: tuple, term_sites: tuple):
    d = len(coords[0])
    for axis in range(d):
        vals = sorted({c[axis] for c in coords})
        if len(vals) == 1 and d > 1:
            continue
        rank = {v: i for i, v in enumerate(vals)}
        col_of = {i: rank[c[axis]] for i, c in enumerate(coords)}
        cols: list = [[] for _ in vals]
        for i in range(len(coords)):
            cols[col_of[i]].append(i)
        if any(q ** len(c) > TM_STATE_CAP for c in cols):
            continue
        ok = True
        for sites in term_sites:
            touched = sorted({col_of[s] for s in sites})
            if len(touched) > 2 or (len(touched) == 2 and touched[1] - touched[0] != 1):
                ok = False
                break
        if ok:
            return TransferPlan(axis, tuple(tuple(c) for c in cols))
    return None


@functools.lru_cache(maxsize=1)
def _gather_index(q: int, columns: tuple, term_sites: tuple) -> tuple:
    """Where a transfer sweep reads the concatenated term tables.

    Returns ``(intra, inter)``, one read-only index per column, each over
    its terms in term order.  ``intra[c]`` has shape (terms inside column
    ``c``, states of ``c``); ``inter[c]`` has shape (terms across columns
    ``c - 1`` and ``c``, states of ``c - 1``, states of ``c``), and
    ``inter[0]`` is None.  A position is the term's offset in the
    concatenation plus its local code.
    """
    place = {}
    for c, sites in enumerate(columns):
        for j, s in enumerate(sites):
            place[s] = (c, j)
    codes = [np.arange(q ** len(sites), dtype=np.intp) for sites in columns]
    intra: list = [[] for _ in columns]
    inter: list = [[] for _ in columns]
    offset = 0
    for sites in term_sites:
        parts: dict = {}  # column -> local code contributed by its digits
        for k, s in enumerate(sites):
            c, j = place[s]
            parts[c] = parts.get(c, 0) + codes[c] // q**j % q * q**k
        if len(parts) == 1:
            ((c, local),) = parts.items()
            intra[c].append(offset + local)
        else:
            (_, before), (c, local) = sorted(parts.items())
            inter[c].append(offset + before[:, None] + local[None, :])
        offset += q ** len(sites)
    sizes = [len(c) for c in codes]
    out_intra, out_inter = [], [None]
    for c, size in enumerate(sizes):
        index = np.array(intra[c], dtype=np.intp).reshape(-1, size)
        index.flags.writeable = False
        out_intra.append(index)
        if c:
            index = np.array(inter[c], dtype=np.intp).reshape(-1, sizes[c - 1], size)
            index.flags.writeable = False
            out_inter.append(index)
    return tuple(out_intra), tuple(out_inter)


def log_partition_transfer(system: CompiledSystem, plan: TransferPlan) -> float:
    """Exact log partition function via a column-to-column transfer sweep."""
    gather_intra, gather_inter = _gather_index(
        system.q, plan.columns, tuple(system.term_sites)
    )
    tables = np.concatenate(system.term_tables) if system.term_tables else np.empty(0)
    # the axis-0 sums add a column's terms in term order, each gather in one read
    intra = [tables[index].sum(axis=0) for index in gather_intra]

    log_scale = 0.0
    shift = float(intra[0].min())
    v = np.exp(-(intra[0] - shift))
    log_scale -= shift
    for c in range(1, len(intra)):
        b = -(tables[gather_inter[c]].sum(axis=0) + intra[c][None, :])
        m = float(b.max())
        w = v @ np.exp(b - m)
        log_scale += m
        peak = float(w.max())
        v = w / peak
        log_scale += math.log(peak)
    return log_scale + math.log(float(v.sum())) - system.const


def log_partition(system: CompiledSystem) -> float:
    """Log partition function by the transfer matrix or by enumeration.

    Prefers the transfer matrix once the box outgrows ``TM_THRESHOLD`` spins
    (and the geometry allows it), else enumerates.
    """
    if system.n_sites * math.log2(system.q) > TM_THRESHOLD:
        plan = plan_transfer(system)
        if plan is not None:
            return log_partition_transfer(system, plan)
    return log_partition_enumerate(system)
