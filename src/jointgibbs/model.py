"""Disordered spin models: alphabets, disorder laws, and interaction terms.

A model couples a spin configuration ``sigma`` to a quenched disorder field
``eta``.  Both live on lattice sites; disorder values may be composite (the
random-bond model stores one coupling per positive lattice direction in the
disorder value of the bond's lower endpoint).  Interactions have finite range
``r``: a term on a site set ``A`` only reads spins and disorder on ``A``, and
vanishes whenever the diameter of ``A`` exceeds ``r``.

Built-in factories:

* :func:`make_rfim` — spin-spin coupling plus a site field set by the local
  disorder (random-field Ising).
* :func:`make_random_bond` — nearest-neighbour couplings drawn per bond.
* :func:`make_dilute` — site dilution: a bond contributes only when both
  endpoints are occupied.

Custom models build a :class:`ModelSpec` from a generic term callback plus a
shape enumerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CapExceededError, ConfigError
from .lattice import Site, SiteSet, as_site

LOCAL_FLIP_CAP_BITS = 24  # spin and disorder patterns in sup_delta_h_single_site


def _normalize_nu(nu: Mapping) -> dict:
    items = list(nu.items())
    if not items:
        raise ConfigError("disorder law is empty")
    total = float(sum(w for _, w in items))
    if total <= 0 or any(w < 0 for _, w in items):
        raise ConfigError("disorder weights must be nonnegative with positive sum")
    out = {}
    for v, w in items:
        if w > 0:
            out[v] = float(w) / total
    if not out:
        raise ConfigError("disorder law has no support")
    return out


@dataclass
class ModelSpec:
    """A finite-range disordered spin model.

    ``site_term(x, s, e)`` and ``pair_term(x, y, sx, sy, ex, ey)`` cover the
    built-in families (``pair_term`` is evaluated on nearest-neighbour pairs
    with ``y`` the lexicographically larger endpoint).  ``generic_term`` and
    ``generic_shapes`` extend to arbitrary finite-range interactions.
    """

    name: str
    spin_values: tuple
    disorder_values: tuple
    nu: dict
    range: int = 1
    site_term: Callable | None = None
    pair_term: Callable | None = None
    generic_term: Callable | None = None  # (SiteSet, sigma_map, eta_map) -> float
    generic_shapes: Callable | None = None  # (Site) -> iterable of SiteSet thru it
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.spin_values) < 2:
            raise ConfigError("spin alphabet needs at least two values")
        if not self.disorder_values:
            raise ConfigError("disorder alphabet is empty")
        self.nu = _normalize_nu(self.nu)
        for v in self.nu:
            if v not in self.disorder_values:
                raise ConfigError(f"disorder law charges unknown value {v!r}")
        if self.range < 0:
            raise ConfigError("interaction range must be nonnegative")

    # -- term evaluation ---------------------------------------------------

    def term(self, A) -> Callable:
        """The term on the site set ``A`` as ``fn(sigma, eta) -> float``.

        Which callback serves ``A`` (site term, nearest-neighbour pair term,
        generic term within range, or none: 0.0) is decided here, once, so a
        table over many spin and disorder states tests ``A`` only once.
        """
        A = A if isinstance(A, SiteSet) else SiteSet(A)
        sites = A.sites
        site, pair, generic = self.site_term, self.pair_term, self.generic_term
        if len(sites) == 1 and site is not None:
            (x,) = sites
            return lambda sigma, eta: site(x, sigma[x], eta[x])
        if len(sites) == 2 and pair is not None:
            x, y = sites
            if sum(abs(a - b) for a, b in zip(x, y)) == 1:
                return lambda sigma, eta: pair(x, y, sigma[x], sigma[y], eta[x], eta[y])
        if generic is not None and A.diameter() <= self.range:
            return lambda sigma, eta: generic(A, sigma, eta)
        return lambda sigma, eta: 0.0

    def phi(self, A: SiteSet, sigma: Mapping, eta: Mapping) -> float:
        """Interaction term on the site set ``A`` (0.0 when unsupported)."""
        return self.term(A)(sigma, eta)

    def interaction_sets(self, region: Iterable[Site]) -> list:
        """All site sets with nonzero terms meeting ``region`` (deduplicated).

        Returned sets may extend up to ``range`` outside the region; callers
        restrict further (e.g. to a working box) as their boundary condition
        requires.
        """
        region_sites = sorted(as_site(s) for s in region)
        seen = set()
        out = []
        for x in region_sites:
            cands: list = []
            if self.site_term is not None:
                cands.append(SiteSet([x]))
            if self.pair_term is not None:
                for k in range(len(x)):
                    for step in (-1, 1):
                        y = tuple(c + step if i == k else c for i, c in enumerate(x))
                        cands.append(SiteSet([x, y]))
            if self.generic_shapes is not None:
                cands.extend(self.generic_shapes(x))
            for A in cands:
                key = A.sites
                if key not in seen:
                    seen.add(key)
                    out.append(A)
        out.sort(key=lambda a: a.sites)
        return out

    # -- disorder law helpers ------------------------------------------------

    def nu_weight(self, value) -> float:
        try:
            return self.nu[value]
        except KeyError:
            return 0.0


@dataclass(frozen=True)
class BoundaryCondition:
    """Spin boundary condition: free, or every collar spin frozen at one value.

    Collar disorder is not part of the boundary condition: contexts that
    integrate it supply it per configuration.
    """

    kind: str = "free"
    spin_fill: object = None

    def __post_init__(self):
        if self.kind not in ("free", "fixed"):
            raise ConfigError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "fixed" and self.spin_fill is None:
            raise ConfigError("fixed boundary needs a spin fill value")

    @classmethod
    def free(cls) -> "BoundaryCondition":
        return cls("free")

    @classmethod
    def fixed(cls, *, fill) -> "BoundaryCondition":
        return cls("fixed", fill)

    @property
    def is_free(self) -> bool:
        return self.kind == "free"

    def spin_at(self, site: Site):
        if self.kind != "fixed":
            raise ConfigError("free boundary has no spins")
        return self.spin_fill


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def make_rfim(
    J: float,
    h: float,
    disorder_values: Sequence = (-1, 1),
    nu: Mapping | None = None,
) -> ModelSpec:
    """Ising pair coupling ``-J s s'`` plus random site field ``-h e s``."""
    values = tuple(disorder_values)
    law = dict(nu) if nu is not None else {v: 1.0 for v in values}
    return ModelSpec(
        name="rfim",
        spin_values=(-1, 1),
        disorder_values=values,
        nu=law,
        range=1,
        site_term=lambda x, s, e: -h * e * s,
        pair_term=lambda x, y, sx, sy, ex, ey: -J * sx * sy,
        params={"J": float(J), "h": float(h)},
    )


def make_random_bond(
    couplings: Sequence,
    weights: Sequence | None = None,
    d: int = 1,
) -> ModelSpec:
    """Nearest-neighbour couplings drawn independently per bond.

    The disorder value at ``x`` is a d-tuple: component ``k`` is the coupling
    on the bond from ``x`` to its positive neighbour along axis ``k``.
    ``couplings`` is either one alphabet shared by every direction or one
    alphabet per direction; ``weights`` matches its shape (uniform default).
    """
    if d < 1:
        raise ConfigError("dimension must be positive")
    if couplings and isinstance(couplings[0], (list, tuple)):
        per_dir = [tuple(float(v) for v in vals) for vals in couplings]
        if len(per_dir) != d:
            raise ConfigError("need one coupling alphabet per direction")
    else:
        per_dir = [tuple(float(v) for v in couplings)] * d
    if weights is None:
        per_w = [tuple(1.0 for _ in vals) for vals in per_dir]
    elif weights and isinstance(weights[0], (list, tuple)):
        per_w = [tuple(float(w) for w in ws) for ws in weights]
    else:
        per_w = [tuple(float(w) for w in weights)] * d
    if any(len(w) != len(v) for w, v in zip(per_w, per_dir)):
        raise ConfigError("weights shape does not match couplings")

    values = tuple(product(*per_dir))
    law = {}
    for combo in product(*[range(len(v)) for v in per_dir]):
        val = tuple(per_dir[k][i] for k, i in enumerate(combo))
        law[val] = math.prod(per_w[k][i] for k, i in enumerate(combo))

    def pair(x, y, sx, sy, ex, ey):
        # y is the lex-larger endpoint, so x owns the bond; find its axis
        for k in range(len(x)):
            if y[k] != x[k]:
                return -ex[k] * sx * sy
        raise ValueError("degenerate pair")

    return ModelSpec(
        name="random_bond",
        spin_values=(-1, 1),
        disorder_values=values,
        nu=law,
        range=1,
        pair_term=pair,
        params={"couplings": [list(v) for v in per_dir], "d": d},
    )


def make_dilute(J: float, p: float) -> ModelSpec:
    """Site-diluted Ising: bonds act only between occupied sites."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"occupation probability must lie in (0, 1), got {p}")
    return ModelSpec(
        name="dilute",
        spin_values=(-1, 1),
        disorder_values=(0, 1),
        nu={0: 1.0 - p, 1: p},
        range=1,
        pair_term=lambda x, y, sx, sy, ex, ey: -J * ex * sx * ey * sy,
        params={"J": float(J), "p": float(p)},
    )


_BUILTINS = {"rfim", "random_bond", "dilute"}


def load_model(cfg: Mapping) -> ModelSpec:
    """Model from a JSON-style mapping: ``{"model": name, ...fields}``.

    RFIM example: ``{"model": "rfim", "J": 1.0, "h": 0.5,
    "nu": {"-1": 0.5, "1": 0.5}}`` (the disorder law is optional and its keys
    parse as numbers).  Random-bond example: ``{"model": "random_bond",
    "couplings": [[-0.2, 0.2]], "weights": [[0.5, 0.5]], "d": 1}``.
    Dilute example: ``{"model": "dilute", "J": 0.8, "p": 0.6}``.
    """
    if "model" not in cfg:
        raise ConfigError("config is missing the 'model' key")
    kind = cfg["model"]
    if kind == "rfim":
        nu_raw = cfg.get("nu")
        nu = None
        values = (-1, 1)
        if nu_raw:
            nu = {_parse_number(k): float(w) for k, w in nu_raw.items()}
            values = tuple(sorted(nu))
        try:
            return make_rfim(cfg["J"], cfg["h"], values, nu)
        except KeyError as exc:
            raise ConfigError(f"rfim config missing parameter {exc}") from exc
    if kind == "random_bond":
        if "couplings" not in cfg:
            raise ConfigError("random_bond config needs 'couplings'")
        return make_random_bond(cfg["couplings"], cfg.get("weights"), int(cfg.get("d", 1)))
    if kind == "dilute":
        try:
            return make_dilute(cfg["J"], cfg["p"])
        except KeyError as exc:
            raise ConfigError(f"dilute config missing parameter {exc}") from exc
    raise ConfigError(f"unknown model {kind!r}; built-ins: {sorted(_BUILTINS)}")


def _parse_number(text):
    v = float(text)
    return int(v) if v == int(v) else v


def sup_delta_h_single_site(spec: ModelSpec, d: int) -> float:
    """A-priori bound: the largest |single-site disorder-flip energy|.

    Exhausts spin and disorder assignments on the union of interaction sets
    through the origin — finite because the alphabets and the range are.
    """
    x = tuple(0 for _ in range(d))
    sets = spec.interaction_sets(SiteSet([x]))
    support = SiteSet([x])
    for A in sets:
        support = support | A
    others = [s for s in support if s != x]
    bits = len(support) * math.log2(len(spec.spin_values)) + (len(others) + 2) * math.log2(
        len(spec.disorder_values)
    )
    if bits > LOCAL_FLIP_CAP_BITS:
        raise CapExceededError(
            "local disorder-flip enumeration", math.ceil(bits), LOCAL_FLIP_CAP_BITS
        )
    best = 0.0
    for sig_combo in product(spec.spin_values, repeat=len(support)):
        sigma = dict(zip(support.sites, sig_combo))
        for eta_combo in product(spec.disorder_values, repeat=len(others)):
            eta = dict(zip(others, eta_combo))
            for e1 in spec.disorder_values:
                eta[x] = e1
                h1 = sum(spec.phi(A, sigma, eta) for A in sets)
                for e2 in spec.disorder_values:
                    eta[x] = e2
                    h2 = sum(spec.phi(A, sigma, eta) for A in sets)
                    best = max(best, abs(h1 - h2))
    return best
