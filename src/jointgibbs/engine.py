"""Exhaustive spin sums and the strip transfer-matrix accelerator.

A spin system is compiled to a flat term list: term ``t`` touches a tuple of
free-site indices and carries a value table over the joint local spin states
(first listed site = least significant digit, alphabet size ``q``).  The
partition function is then a sum over all ``q^n`` configurations of
``exp(-E)``, always accumulated in log space.

The exhaustive sweep is chunked numpy: it broadcasts term tables over blocks
of configuration codes and rescales its running sums whenever a block lowers
the minimum energy.

The transfer matrix handles 1D chains and 2D strips (state = one column of
spins, capped at 64 states); it is an accelerator for large boxes, never the
source of truth — cross-checks against enumeration live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapExceededError

ENUMERATION_CAP = 22  # max free spins for exhaustive enumeration (q=2)
TM_THRESHOLD = 18  # auto backend: try the transfer matrix above this many spins
TM_STATE_CAP = 64  # max q^width for the transfer matrix
_NUMPY_CHUNK = 1 << 16

# There is no numba backend.  The committed benchmark's worker still reads
# these two names for its environment record; they go with the next change
# to the benchmark.
HAS_NUMBA = False


def numba_enabled() -> bool:
    return False


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
        table = np.asarray(table, dtype=np.float64).ravel()
        if not sites:
            self.const += float(table[0])
            return
        order = np.argsort(np.asarray(sites, dtype=np.int64), kind="stable")
        sites_sorted = tuple(int(sites[i]) for i in order)
        if len(set(sites_sorted)) != len(sites_sorted):
            raise ValueError(f"duplicate site in term: {sites}")
        if table.size != self.q ** len(sites_sorted):
            raise ValueError("term table size mismatch")
        if tuple(sites) != sites_sorted:
            # reindex the table to the ascending site order
            k = len(sites)
            src = table.reshape((self.q,) * k, order="F")
            table = np.ascontiguousarray(src.transpose(tuple(order))).reshape(
                -1, order="F"
            ).copy()
        self.term_sites.append(sites_sorted)
        self.term_tables.append(np.ascontiguousarray(table))

    @property
    def n_configs(self) -> int:
        return self.q**self.n_sites

    def energy(self, digits: Sequence[int]) -> float:
        """Energy of one configuration given as per-site digit values."""
        e = self.const
        for sites, tab in zip(self.term_sites, self.term_tables):
            code = 0
            for j, s in enumerate(reversed(sites)):
                code = code * self.q + digits[s]
            e += tab[code]
        return e

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


def _chunk_energies(system: CompiledSystem, codes: np.ndarray) -> np.ndarray:
    q = system.q
    e = np.full(codes.shape, system.const, dtype=np.float64)
    digit_cache: dict = {}
    for sites, tab in zip(system.term_sites, system.term_tables):
        idx = np.zeros(codes.shape, dtype=np.int64)
        stride = 1
        for s in sites:
            d = digit_cache.get(s)
            if d is None:
                d = (codes // q**s) % q
                digit_cache[s] = d
            idx += d * stride
            stride *= q
        e += tab[idx]
    return e


def sweep(
    system: CompiledSystem,
    observables: Sequence[ProductObservable] = (),
    cap: int = ENUMERATION_CAP,
):
    """Exhaustive sweep over all configurations; refuses oversized systems.

    Returns ``(log_z, expectations)`` where ``expectations[k]`` is the Gibbs
    expectation of the k-th product observable.
    """
    bits = system.n_sites * math.log2(system.q)
    if bits > cap:
        raise CapExceededError("spin enumeration", math.ceil(bits), cap)
    if system.n_sites == 0:
        return -system.const, [1.0 for _ in observables]
    q, n = system.q, system.n_sites
    total = q**n
    ref = math.inf  # running minimum energy (log-sum-exp reference)
    sz = 0.0
    sf = np.zeros(len(observables), dtype=np.float64)
    for start in range(0, total, _NUMPY_CHUNK):
        codes = np.arange(start, min(start + _NUMPY_CHUNK, total), dtype=np.int64)
        e = _chunk_energies(system, codes)
        m = float(e.min())
        if m < ref:
            scale = math.exp(m - ref) if math.isfinite(ref) else 0.0
            sz *= scale
            sf *= scale
            ref = m
        w = np.exp(ref - e)
        sz += float(w.sum())
        for k, obs in enumerate(observables):
            f = np.ones(codes.shape, dtype=np.float64)
            for s, vals in zip(obs.sites, obs.values):
                f *= vals[(codes // q**s) % q]
            sf[k] += float(w @ f)
    log_z = -ref + math.log(sz)
    return log_z, [s / sz for s in sf]


def log_partition_enumerate(system: CompiledSystem, cap: int = ENUMERATION_CAP) -> float:
    return sweep(system, (), cap)[0]


# ---------------------------------------------------------------------------
# transfer matrix for chains / narrow strips
# ---------------------------------------------------------------------------


@dataclass
class TransferPlan:
    axis: int
    columns: list  # per column: list of free-site indices (ascending)
    col_of_site: dict


def plan_transfer(system: CompiledSystem, state_cap: int = TM_STATE_CAP):
    """Column decomposition usable by the transfer matrix, or None.

    Requires site coordinates; tries each axis and accepts the first along
    which every term spans at most two *adjacent* columns and every column
    has at most ``state_cap`` states.
    """
    coords = system.site_coords
    if coords is None or system.n_sites == 0:
        return None
    d = len(coords[0])
    for axis in range(d):
        vals = sorted({c[axis] for c in coords})
        if len(vals) == 1 and d > 1:
            continue
        rank = {v: i for i, v in enumerate(vals)}
        col_of = {i: rank[c[axis]] for i, c in enumerate(coords)}
        cols: list = [[] for _ in vals]
        for i in range(system.n_sites):
            cols[col_of[i]].append(i)
        if any(system.q ** len(c) > state_cap for c in cols):
            continue
        ok = True
        for sites in system.term_sites:
            touched = sorted({col_of[s] for s in sites})
            if len(touched) > 2 or (len(touched) == 2 and touched[1] - touched[0] != 1):
                ok = False
                break
        if ok:
            return TransferPlan(axis, cols, col_of)
    return None


def log_partition_transfer(system: CompiledSystem, plan: TransferPlan) -> float:
    """Exact log partition function via a column-to-column transfer sweep."""
    q = system.q
    cols = plan.columns
    ncol = len(cols)
    pos_in_col = {}
    for c, sites in enumerate(cols):
        for j, s in enumerate(sites):
            pos_in_col[s] = (c, j)

    # split terms into intra-column and between adjacent columns
    intra: list = [np.zeros(q ** len(c)) for c in cols]
    inter: list = [None] * ncol  # inter[c] couples columns c-1 -> c
    for c in range(1, ncol):
        inter[c] = np.zeros((q ** len(cols[c - 1]), q ** len(cols[c])))

    def partial_index(codes, col_sites, term_sites):
        # local term index contributed by this column's digits
        idx = np.zeros(codes.shape, dtype=np.int64)
        for k, s in enumerate(term_sites):
            if s in col_sites:
                j = col_sites.index(s)
                idx += ((codes // q**j) % q) * q**k
        return idx

    state_codes = [np.arange(q ** len(c), dtype=np.int64) for c in cols]
    for sites, tab in zip(system.term_sites, system.term_tables):
        touched = sorted({pos_in_col[s][0] for s in sites})
        if len(touched) == 1:
            c = touched[0]
            idx = partial_index(state_codes[c], cols[c], sites)
            intra[c] += tab[idx]
        else:
            c0, c1 = touched
            ia = partial_index(state_codes[c0], cols[c0], sites)
            ib = partial_index(state_codes[c1], cols[c1], sites)
            inter[c1] += tab[ia[:, None] + ib[None, :]]

    log_scale = 0.0
    shift = float(intra[0].min())
    v = np.exp(-(intra[0] - shift))
    log_scale -= shift
    for c in range(1, ncol):
        b = -(inter[c] + intra[c][None, :])
        m = float(b.max())
        w = v @ np.exp(b - m)
        log_scale += m
        peak = float(w.max())
        v = w / peak
        log_scale += math.log(peak)
    return log_scale + math.log(float(v.sum())) - system.const


def log_partition(
    system: CompiledSystem,
    backend: str = "auto",
    cap: int = ENUMERATION_CAP,
) -> float:
    """Log partition function; ``backend`` is auto|enumerate|transfer.

    ``auto`` prefers the transfer matrix once the box outgrows
    ``TM_THRESHOLD`` spins (and the geometry allows it), else enumerates.
    """
    if backend == "enumerate":
        return log_partition_enumerate(system, cap)
    if backend == "transfer":
        plan = plan_transfer(system)
        if plan is None:
            raise ValueError("transfer matrix not applicable to this geometry")
        return log_partition_transfer(system, plan)
    if backend != "auto":
        raise ValueError(f"unknown backend {backend!r}")
    if system.n_sites * math.log2(system.q) > TM_THRESHOLD:
        plan = plan_transfer(system)
        if plan is not None:
            return log_partition_transfer(system, plan)
    return log_partition_enumerate(system, cap)
