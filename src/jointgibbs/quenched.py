"""Finite-volume Gibbs ensembles at a fixed disorder configuration.

A :class:`QuenchedEnsemble` holds a model, a finite region of free spins, a
disorder assignment, and a spin boundary condition.  Free boundary drops
every interaction set that exits the region; a fixed boundary keeps sets
reaching up to range ``r`` outside and reads frozen spins from the boundary
condition.  Probabilities are exp(-H)/Z with all normalizations computed in
log space by the enumeration or transfer-matrix backends.
"""

from __future__ import annotations

import math
from itertools import product
from numbers import Real
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import engine
from .engine import CompiledSystem, ProductObservable
from .errors import CapExceededError, ConfigError, UnsupportedObservableError
from .lattice import Box, Site, SiteSet, as_site
from .model import BoundaryCondition, ModelSpec

EXPECTATION_CAP = 20  # max log2(#configs) for callback-style expectations


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

        self._system: CompiledSystem | None = None
        self._logz: dict = {}

    # -- compilation ---------------------------------------------------------

    @property
    def q(self) -> int:
        return len(self.spec.spin_values)

    def compile(self) -> CompiledSystem:
        if self._system is None:
            sys_ = CompiledSystem(
                len(self.free_sites), self.q, site_coords=list(self.free_sites)
            )
            for A in self.term_sets:
                idx, table = self._term_table(A, None)
                sys_.add_term(idx, table)
            self._system = sys_
        return self._system

    def _term_table(self, A: SiteSet, fn: Callable | None):
        """Local energy table of one interaction set over its free digits."""
        free = [s for s in A if s in self.index]
        idx = [self.index[s] for s in free]
        k = len(free)
        values = self.spec.spin_values
        table = np.zeros(self.q**k, dtype=np.float64)
        sigma = {s: self.frozen_sigma[s] for s in A if s not in self.index}
        for code in range(table.size):
            c = code
            for s in free:
                sigma[s] = values[c % self.q]
                c //= self.q
            if fn is None:
                table[code] = self.spec.phi(A, sigma, self.eta)
            else:
                table[code] = fn(sigma)
        return idx, table

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

    def log_partition(self, backend: str = "auto") -> float:
        if backend not in self._logz:
            self._logz[backend] = engine.log_partition(self.compile(), backend)
        return self._logz[backend]

    def log_partition_extended(
        self, extra_terms: Sequence[tuple], backend: str = "auto"
    ) -> float:
        return engine.log_partition(self._extended(extra_terms), backend)

    def log_expectation_exp_neg(
        self, extra_terms: Sequence[tuple], backend: str = "auto"
    ) -> float:
        """log of the Gibbs expectation of exp(-sum of the extra terms)."""
        return self.log_partition_extended(extra_terms, backend) - self.log_partition(
            backend
        )

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

    def gibbs_probability(self, sigma: Mapping, backend: str = "auto") -> float:
        """Probability of one full spin configuration on the region."""
        return math.exp(-self.energy(sigma) - self.log_partition(backend))

    # -- observables -----------------------------------------------------------

    def expectation(self, obs, backend: str = "auto") -> float:
        """Gibbs expectation of ``obs``.

        ``obs`` is either a :class:`ProductObservable` over site indices, a
        pair ``(sites, site_funcs)`` defining one, or a plain callable on
        spin maps (exhaustive; capped much lower than the sweep backends).
        """
        if isinstance(obs, ProductObservable):
            return engine.sweep(self.compile(), (obs,))[1][0]
        if isinstance(obs, tuple) and len(obs) == 2 and not callable(obs):
            sites, funcs = obs
            return engine.sweep(self.compile(), (self._product_obs(sites, funcs),))[1][0]
        if not callable(obs):
            raise TypeError("observable must be callable or a product form")
        n, q = len(self.free_sites), self.q
        if n * math.log2(q) > EXPECTATION_CAP:
            raise CapExceededError("observable enumeration", n, EXPECTATION_CAP)
        values = self.spec.spin_values
        logz = self.log_partition(backend)
        system = self.compile()
        total = 0.0
        for combo in product(range(q), repeat=n):
            digits = list(reversed(combo))
            sigma = {s: values[d] for s, d in zip(self.free_sites, digits)}
            w = math.exp(-system.energy(digits) - logz)
            total += w * obs(sigma)
        return total

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
