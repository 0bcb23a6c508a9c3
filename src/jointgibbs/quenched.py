"""Finite-volume Gibbs ensembles at a fixed disorder configuration.

A :class:`QuenchedEnsemble` holds a model, a finite region of free spins, a
disorder assignment, and a spin boundary condition.  Free boundary drops
every interaction set that exits the region; a fixed boundary keeps sets
reaching up to range ``r`` outside and reads frozen spins from the boundary
condition.  Probabilities are exp(-H)/Z with all normalizations computed in
log space by the enumeration or transfer-matrix backends.
"""

from __future__ import annotations

import functools
import math
from itertools import product
from numbers import Real
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import engine
from .engine import CompiledSystem, ProductObservable
from .errors import ConfigError, UnsupportedObservableError
from .lattice import Box, Site, SiteSet, as_site
from .model import BoundaryCondition, ModelSpec

class QuenchedEnsemble:
    """Gibbs measure of ``spec`` on ``region`` at disorder ``eta``.

    Parameters
    ----------
    spec : ModelSpec
    region : Box or iterable of sites
        The free spins.
    eta : mapping site -> disorder value
        Must cover every site read by a kept interaction term (for fixed
        boundaries this includes the range-r collar unless the boundary
        condition supplies collar disorder itself).
    bc : BoundaryCondition
    """

    def __init__(
        self,
        spec: ModelSpec,
        region,
        eta: Mapping,
        bc: BoundaryCondition | None = None,
        _terms: list | None = None,
        _frozen: dict | None = None,
    ):
        self.spec = spec
        self.bc = bc if bc is not None else BoundaryCondition.free()
        if isinstance(region, Box):
            self.free_sites = tuple(region.sites())
        else:
            self.free_sites = tuple(sorted(as_site(s) for s in region))
        if not self.free_sites:
            raise ConfigError("empty region")
        if len(set(self.free_sites)) != len(self.free_sites):
            raise ConfigError("region has repeated sites")
        self.index = {s: i for i, s in enumerate(self.free_sites)}

        free_set = SiteSet(self.free_sites)
        if _terms is not None:
            self.term_sets = list(_terms)
        else:
            all_sets = spec.interaction_sets(free_set)
            if self.bc.is_free:
                self.term_sets = [A for A in all_sets if A.issubset(free_set)]
            else:
                self.term_sets = all_sets

        if _frozen is not None:
            self.frozen_sigma = dict(_frozen)
        else:
            self.frozen_sigma = {}
            for A in self.term_sets:
                for s in A:
                    if s not in self.index and s not in self.frozen_sigma:
                        self.frozen_sigma[s] = self.bc.spin_at(s)

        self.eta = {as_site(k): v for k, v in eta.items()}
        if self.bc.eta:
            for k, v in self.bc.eta.items():
                self.eta.setdefault(as_site(k), v)
        missing = sorted(
            {s for A in self.term_sets for s in A if s not in self.eta}
        )
        if missing:
            raise ConfigError(f"disorder not assigned on sites {missing}")

        self._tables: list | None = None  # see at_tables
        self._system: CompiledSystem | None = None
        self._logz: float | None = None

    def at_tables(self, eta: Callable[[], dict], tables: list) -> "QuenchedEnsemble":
        """This ensemble's region, terms and frozen spins at other disorder.

        ``tables`` holds the table of each term of ``term_sets``, in order, as
        :func:`engine.normalize_term` returns it; :meth:`compile` adds them as
        they are.  ``eta()`` returns the disorder on every term site, called
        on the first read of :attr:`eta`.  Nothing is checked: the caller
        vouches that the tables are the terms at that disorder.
        """
        ens = object.__new__(QuenchedEnsemble)
        ens.spec, ens.bc, ens.index = self.spec, self.bc, self.index
        ens.free_sites, ens.term_sets = self.free_sites, self.term_sets
        ens.frozen_sigma = self.frozen_sigma
        ens._decode, ens._tables = eta, tables
        ens._system = ens._logz = None
        return ens

    @functools.cached_property
    def eta(self) -> dict:
        # __init__ stores eta itself; an ensemble from at_tables decodes it here
        return self._decode()

    # -- compilation ---------------------------------------------------------

    @property
    def q(self) -> int:
        return len(self.spec.spin_values)

    def compile(self) -> CompiledSystem:
        if self._system is None:
            sys_ = CompiledSystem(
                len(self.free_sites), self.q, site_coords=list(self.free_sites)
            )
            tables = self._tables
            if tables is None:
                tables = [self._phi_table(A, self.eta) for A in self.term_sets]
            for sites, table in tables:
                sys_.add_normalized(sites, table)
            self._system = sys_
        return self._system

    def _phi_table(self, A: SiteSet, eta: Mapping) -> tuple:
        return engine.normalize_term(
            self.q, *self._term_table(A, lambda sigma: self.spec.phi(A, sigma, eta))
        )

    def pattern_tables(self, A: SiteSet) -> tuple:
        """The term on ``A`` at every disorder pattern on ``A``: ``(sites, tables)``.

        ``sites``: free-site indices as in :func:`engine.normalize_term`; row p
        of ``tables``: the table at pattern p, mixed-radix over ``A.sites``
        (first site least significant, digits index ``spec.disorder_values``).
        """
        etas = [
            dict(zip(A.sites, pattern[::-1]))
            for pattern in product(self.spec.disorder_values, repeat=len(A.sites))
        ]
        phi = self.spec.phi
        idx, table = self._term_table(A, lambda sigma: [phi(A, sigma, eta) for eta in etas])
        # free sites and A both run in sorted order, so idx ascends and the
        # rows are already in engine.normalize_term's layout
        return tuple(idx), np.ascontiguousarray(table.T)

    def _term_table(self, A: SiteSet, fn: Callable):
        """Table of ``fn(sigma_map)`` over the free digits of one interaction set.

        Entry ``code`` holds ``fn`` at the spins of that digit code, the
        first free site's digit least significant.
        """
        free = [s for s in A if s in self.index]
        idx = [self.index[s] for s in free]
        values = self.spec.spin_values
        sigma = {s: self.frozen_sigma[s] for s in A if s not in self.index}
        rows = []
        for code in range(self.q ** len(free)):
            c = code
            for s in free:
                sigma[s] = values[c % self.q]
                c //= self.q
            rows.append(fn(sigma))
        return idx, np.array(rows, dtype=np.float64)

    def extra_term(self, A, fn: Callable) -> tuple:
        """Compile ``fn(sigma_map) -> float`` on set ``A`` for this ensemble."""
        A = A if isinstance(A, SiteSet) else SiteSet(A)
        return self._term_table(A, fn)

    def _extended(self, extra_terms: Sequence[tuple]) -> CompiledSystem:
        base = self.compile()
        ext = CompiledSystem(base.n_sites, base.q, site_coords=base.site_coords)
        for idx, table in extra_terms:
            ext.add_term(idx, table)
        return base.extended(ext)

    # -- normalization and probabilities --------------------------------------

    def log_partition(self) -> float:
        if self._logz is None:
            self._logz = engine.log_partition(self.compile())
        return self._logz

    def log_expectation_exp_neg(self, extra_terms: Sequence[tuple]) -> float:
        """log of the Gibbs expectation of exp(-sum of the extra terms)."""
        return engine.log_partition(self._extended(extra_terms)) - self.log_partition()

    def energy(self, sigma: Mapping) -> float:
        return self.compile().energy(self._digits(sigma))

    def _digits(self, sigma: Mapping) -> list:
        values = self.spec.spin_values
        digits = []
        for s in self.free_sites:
            if s not in sigma:
                raise ConfigError(f"spin missing at {s}")
            v = sigma[s]
            try:
                digits.append(values.index(v))
            except ValueError:
                raise ConfigError(f"spin value {v!r} at {s} not in alphabet") from None
        return digits

    def gibbs_probability(self, sigma: Mapping) -> float:
        """Probability of one full spin configuration on the region."""
        return math.exp(-self.energy(sigma) - self.log_partition())

    # -- observables -----------------------------------------------------------

    def _product_obs(self, sites, funcs) -> ProductObservable:
        values = self.spec.spin_values
        idx = []
        tabs = []
        for s, f in zip(sites, funcs):
            idx.append(self.index[as_site(s)])
            tabs.append([f(v) for v in values])
        return ProductObservable.of(idx, tabs)

    def spin_product(self, sites: Iterable[Site]) -> float:
        """Expectation of the product of spins on ``sites``."""
        self._require_numeric_spins()
        sites = [as_site(s) for s in sites]
        obs = self._product_obs(sites, [lambda v: float(v)] * len(sites))
        return engine.sweep(self.compile(), (obs,))[1][0]

    def magnetization(self, site: Site) -> float:
        """Expected spin at one site; numeric spin alphabets only."""
        return self.spin_product([site])

    def _require_numeric_spins(self):
        if not all(isinstance(v, Real) for v in self.spec.spin_values):
            raise UnsupportedObservableError(
                f"spin alphabet {self.spec.spin_values!r} is not numeric"
            )

    # -- conditioning (consistency of the Gibbs family) -----------------------

    def conditional(self, sub, sigma_outside: Mapping) -> "QuenchedEnsemble":
        """The ensemble on ``sub`` given spins elsewhere in the region.

        Keeps exactly the terms of this ensemble that meet ``sub``, freezing
        their spins outside ``sub`` from ``sigma_outside`` (or this
        ensemble's own frozen boundary).
        """
        sub_set = SiteSet(sub)
        if not sub_set.issubset(SiteSet(self.free_sites)):
            raise ConfigError("conditioning region must lie inside the ensemble")
        terms = [A for A in self.term_sets if not sub_set.isdisjoint(A)]
        frozen = dict(self.frozen_sigma)
        for s in self.free_sites:
            if s not in sub_set and s in sigma_outside:
                frozen[s] = sigma_outside[s]
        return QuenchedEnsemble(
            self.spec,
            sub_set,
            self.eta,
            self.bc,
            _terms=terms,
            _frozen=frozen,
        )
