"""Finite-lattice geometry: boxes in Z^d, site subsets, orders, neighborhoods.

Sites are plain integer tuples.  Site subsets are canonically the
lexicographically sorted tuple of their sites; inside a named window box a
subset is equivalently a bitmask over the window's lexicographically ordered
sites, which is the encoding used for subset enumeration and for the
inclusion-exclusion transforms downstream.

Conventions (fixed once, used everywhere):

* neighborhoods use the sup-norm: the r-neighborhood of A is the union of
  closed l-infinity balls of radius r around the sites of A;
* cluster connectivity is nearest-neighbor (l1 distance 1);
* the spiral order sorts sites by (l-infinity norm from a center, then
  lexicographic), a deterministic bijection onto {1, 2, ...}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceededError

Site = tuple  # integer coordinate tuple, any d >= 1

SUBSET_ENUMERATION_CAP = 24


def as_site(coords: Sequence[int]) -> Site:
    """Coerce a coordinate sequence to a canonical site tuple."""
    return tuple(int(c) for c in coords)


def linf_dist(a: Site, b: Site) -> int:
    """Sup-norm distance between two sites."""
    return max(abs(u - v) for u, v in zip(a, b))


@dataclass(frozen=True)
class Box:
    """A rectangular box in Z^d given by its lower and upper corners (inclusive).

    Parameters
    ----------
    lower, upper : tuple of int
        Corner sites; ``lower[i] <= upper[i]`` for every axis.
    """

    lower: Site
    upper: Site

    def __post_init__(self):
        object.__setattr__(self, "lower", as_site(self.lower))
        object.__setattr__(self, "upper", as_site(self.upper))
        if len(self.lower) != len(self.upper):
            raise ValueError("corner dimensions differ")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise ValueError(f"empty box: lower={self.lower} upper={self.upper}")

    @classmethod
    def from_shape(cls, *extents: int, origin: Sequence[int] | None = None) -> "Box":
        """Box with the given axis extents, anchored at ``origin`` (default 0)."""
        if not extents:
            raise ValueError("need at least one extent")
        if any(e < 1 for e in extents):
            raise ValueError(f"extents must be positive, got {extents}")
        lo = as_site(origin) if origin is not None else (0,) * len(extents)
        hi = tuple(l + e - 1 for l, e in zip(lo, extents))
        return cls(lo, hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def shape(self) -> tuple:
        return tuple(u - l + 1 for l, u in zip(self.lower, self.upper))

    def __len__(self) -> int:
        n = 1
        for e in self.shape:
            n *= e
        return n

    def __contains__(self, site) -> bool:
        site = as_site(site)
        return len(site) == self.dim and all(
            l <= c <= u for l, c, u in zip(self.lower, site, self.upper)
        )

    def sites(self) -> list:
        """All sites of the box in lexicographic order."""
        ranges = [range(l, u + 1) for l, u in zip(self.lower, self.upper)]
        return [tuple(p) for p in itertools.product(*ranges)]

    def index(self, site: Site) -> int:
        """Lexicographic rank of ``site`` within the box."""
        site = as_site(site)
        if site not in self:
            raise KeyError(f"{site} not in {self}")
        idx = 0
        for l, u, c in zip(self.lower, self.upper, site):
            idx = idx * (u - l + 1) + (c - l)
        return idx

    def expand(self, r: int) -> "Box":
        """The box grown by ``r`` in every direction (its r-neighborhood)."""
        if r < 0:
            raise ValueError("r must be >= 0")
        return Box(tuple(l - r for l in self.lower), tuple(u + r for u in self.upper))

    def center(self) -> Site:
        return tuple((l + u) // 2 for l, u in zip(self.lower, self.upper))

    def to_json(self) -> dict:
        return {"lower": list(self.lower), "upper": list(self.upper)}

    @classmethod
    def from_json(cls, data: dict) -> "Box":
        return cls(tuple(data["lower"]), tuple(data["upper"]))


class SiteSet:
    """An immutable finite set of sites, canonically in lexicographic order.

    Supports the usual set algebra plus bitmask encoding relative to a window
    box (bit i of the mask corresponds to the window's i-th site in
    lexicographic order).
    """

    __slots__ = ("_sites", "_set")

    def __init__(self, sites: Iterable = ()):
        seen = {as_site(s) for s in sites}
        if seen:
            dims = {len(s) for s in seen}
            if len(dims) > 1:
                raise ValueError("mixed site dimensions")
        self._sites = tuple(sorted(seen))
        self._set = frozenset(self._sites)

    # -- basics -------------------------------------------------------------
    def __iter__(self) -> Iterator:
        return iter(self._sites)

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, site) -> bool:
        return as_site(site) in self._set

    def __eq__(self, other) -> bool:
        return isinstance(other, SiteSet) and self._sites == other._sites

    def __hash__(self) -> int:
        return hash(self._sites)

    def __repr__(self) -> str:
        return f"SiteSet({list(self._sites)})"

    def __bool__(self) -> bool:
        return bool(self._sites)

    @property
    def sites(self) -> tuple:
        return self._sites

    def diameter(self) -> int:
        """Largest sup-norm distance between two member sites: the widest axis span."""
        return max((max(c) - min(c) for c in zip(*self._sites)), default=0)

    # -- set algebra ----------------------------------------------------------
    def union(self, other: "SiteSet") -> "SiteSet":
        return SiteSet(self._set | other._set)

    def intersection(self, other: "SiteSet") -> "SiteSet":
        return SiteSet(self._set & other._set)

    def difference(self, other: "SiteSet") -> "SiteSet":
        return SiteSet(self._set - other._set)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def issubset(self, other) -> bool:
        if isinstance(other, SiteSet):
            return self._set <= other._set
        if isinstance(other, Box):
            return all(s in other for s in self._sites)
        return self._set <= frozenset(as_site(s) for s in other)

    def isdisjoint(self, other: "SiteSet") -> bool:
        return self._set.isdisjoint(other._set)

    # -- bitmask encoding -----------------------------------------------------
    def mask(self, window: "Box | SiteSet") -> int:
        """Bitmask of this set relative to ``window`` (lex site order)."""
        wsites = window.sites() if isinstance(window, Box) else list(window)
        pos = {s: i for i, s in enumerate(wsites)}
        m = 0
        for s in self._sites:
            try:
                m |= 1 << pos[s]
            except KeyError:
                raise ValueError(f"site {s} outside window") from None
        return m

    @classmethod
    def from_mask(cls, window: "Box | SiteSet", mask: int) -> "SiteSet":
        wsites = window.sites() if isinstance(window, Box) else list(window)
        return cls(s for i, s in enumerate(wsites) if mask >> i & 1)

    @classmethod
    def from_box(cls, box: Box) -> "SiteSet":
        return cls(box.sites())

    # -- serialization ----------------------------------------------------------
    def to_json(self) -> list:
        return [list(s) for s in self._sites]

    @classmethod
    def from_json(cls, data: Iterable) -> "SiteSet":
        return cls(tuple(c) for c in data)


def r_neighborhood(A: SiteSet, r: int) -> SiteSet:
    """The set of sites within sup-norm distance r of A (A-bar in the text)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0 or not A:
        return A
    out = set()
    offsets = list(itertools.product(range(-r, r + 1), repeat=len(A.sites[0])))
    for s in A:
        for off in offsets:
            out.add(tuple(c + o for c, o in zip(s, off)))
    return SiteSet(out)


def boundary(A: SiteSet, r: int) -> SiteSet:
    """The boundary ring: r_neighborhood(A, r) minus A."""
    return r_neighborhood(A, r) - A


def enumerate_subsets(window) -> Iterator[SiteSet]:
    """Yield every subset of ``window`` once, in increasing bitmask order.

    ``window`` may be a Box or a SiteSet.  Refuses windows larger than
    ``SUBSET_ENUMERATION_CAP`` sites with a size report.
    """
    wsites = window.sites() if isinstance(window, Box) else list(window)
    n = len(wsites)
    if n > SUBSET_ENUMERATION_CAP:
        raise CapExceededError("subset enumeration window", n, SUBSET_ENUMERATION_CAP)
    for m in range(1 << n):
        yield SiteSet(s for i, s in enumerate(wsites) if m >> i & 1)


def _neighbors(site: Site):
    for axis in range(len(site)):
        for step in (-1, 1):
            yield site[:axis] + (site[axis] + step,) + site[axis + 1:]


def connected_components(A: SiteSet) -> list:
    """Partition A into maximal nearest-neighbor (l1) connected components.

    Union-find with path halving; components come back sorted by their
    lexicographically smallest site.
    """
    sites = list(A)
    if not sites:
        return []
    parent = {s: s for s in sites}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]  # path halving
            s = parent[s]
        return s

    members = A
    for s in sites:
        for nb in _neighbors(s):
            if nb in members:
                ra, rb = find(s), find(nb)
                if ra != rb:
                    parent[ra] = rb
    groups: dict = {}
    for s in sites:
        groups.setdefault(find(s), []).append(s)
    comps = [SiteSet(g) for g in groups.values()]
    comps.sort(key=lambda c: c.sites[0])
    return comps


class SiteOrder:
    """A total order on sites: lexicographic, or spiral around a center.

    The spiral order sorts by (sup-norm distance from ``center``,
    lexicographic); restricted to any box it is a bijection onto
    {1, ..., |box|} via :meth:`rank_map`.
    """

    def __init__(self, kind: str, key: Callable, center: Site | None = None):
        self.kind = kind
        self._key = key
        self.center = center

    @classmethod
    def lexicographic(cls) -> "SiteOrder":
        return cls("lexicographic", lambda s: s)

    @classmethod
    def spiral(cls, center: Sequence[int]) -> "SiteOrder":
        c = as_site(center)

        def key(s):
            return (linf_dist(s, c), s)

        return cls("spiral", key, center=c)

    def key(self, site: Site):
        return self._key(as_site(site))

    def sort(self, sites: Iterable) -> list:
        return sorted((as_site(s) for s in sites), key=self._key)

    def rank_map(self, sites: Iterable) -> dict:
        """Map each site to its 1-based rank under this order."""
        return {s: i + 1 for i, s in enumerate(self.sort(sites))}

    def min(self, sites: Iterable) -> Site:
        return min((as_site(s) for s in sites), key=self._key)
