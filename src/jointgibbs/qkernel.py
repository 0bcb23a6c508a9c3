"""Partition-function ratios under local disorder flips, and the joint law.

The central object is the log-ratio

    log_q(V; eta1, eta2, eta_rest)
        = log Z[eta1 on V, eta_rest off V] - log Z[eta2 on V, eta_rest off V]

for a working box with a fixed spin boundary condition.  It is antisymmetric
in (eta1, eta2), depends only on the disorder where the flips differ, and
satisfies a chain rule in the middle argument; :meth:`QKernelContext.check_q_properties`
measures all three on random sub-boxes.  The same ratio has a second,
independent route as the Gibbs expectation of the exponential of the local
energy difference, used as a cross-check (never collapsed into the first).

A :class:`QKernelContext` also evaluates the conditional law of the joint
(spin, disorder) measure on small site sets: the weight of a joint patch is
the exponential of minus the annealed terms touching it, deflated by the
partition function at its disorder — the extra Z-factor is exactly what a
plain Gibbs form lacks, and everything downstream quantifies how far it can
be folded back into an interaction.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Mapping

import numpy as np

from . import engine
from .errors import CapExceededError, ConfigError
from .lattice import Box, SiteSet
from .model import BoundaryCondition, ModelSpec
from .quenched import QuenchedEnsemble

JOINT_WINDOW_CAP = 4  # max |V| for single-call joint conditionals
ROW_TABLE_CAP = 1 << 21  # max entries (float64) of a context's batched row table


class _RowTable:
    """Every term table of a context, spread over all spin configurations.

    Row 0 is the sum of the terms whose table is the same at every local
    disorder pattern (and of the terms without free spins).  Every other
    term has one row per distinct table over its patterns, so the energy of
    code ``c`` over all configurations is row 0 plus one row per such term,
    picked by the digits of ``c`` on the term's sites.  The table is empty
    (false) where the batch does not apply: a spin space past one engine
    chunk, a non-finite term table, or more than ``ROW_TABLE_CAP`` entries.
    """

    def __init__(self, ctx: "QKernelContext"):
        self.rows = None
        ens = ctx.ensemble(ctx.eta_of(0))
        q, n = ens.q, len(ens.free_sites)
        if q**n > engine._NUMPY_CHUNK or ctx.n_codes > 1 << 63:
            return
        k = len(ctx.spec.disorder_values)
        pos = {s: i for i, s in enumerate(ctx.eta_domain)}
        fixed, varying = [], []
        for A in ctx.term_sets:
            tables = ens.pattern_tables(A)
            if not all(np.isfinite(t).all() for _, t in tables):
                return
            index: dict = {}
            uniq, row_of = [], []
            for _, t in tables:
                row_of.append(index.setdefault(t.tobytes(), len(uniq)))
                if row_of[-1] == len(uniq):
                    uniq.append(t)
            (fixed if len(uniq) == 1 else varying).append((A, tables[0][0], uniq, row_of))
        n_rows = 1 + sum(len(uniq) for _, _, uniq, _ in varying)
        if n_rows * q**n > ROW_TABLE_CAP:
            return
        rows = np.zeros((n_rows, q**n))
        for _, sites, uniq, _ in fixed:
            rows[0] += engine.spread_tables(q, n, sites, uniq)[0]
        # lut[offsets[t] + pattern] is the row term t adds at that pattern
        weights = np.zeros((len(ctx.eta_domain), len(varying)), dtype=np.int64)
        offsets = np.zeros(len(varying), dtype=np.int64)
        lut, top = [], 1
        for t, (A, sites, uniq, row_of) in enumerate(varying):
            for j, s in enumerate(A.sites):
                weights[pos[s], t] = k**j
            offsets[t] = len(lut)
            lut.extend(top + r for r in row_of)
            rows[top:top + len(uniq)] = engine.spread_tables(q, n, sites, uniq)
            top += len(uniq)
        rows.flags.writeable = False
        self.rows = rows
        self.weights = weights
        self.offsets = offsets
        self.lut = np.array(lut, dtype=np.intp)
        self.strides = ctx.strides()
        self.k = k

    def __bool__(self) -> bool:
        return self.rows is not None

    def logz(self, codes: list) -> list:
        """log Z at each code of a list, through the engine's batched sums."""
        codes = np.array(codes, dtype=np.int64)

        def picks(start, stop):
            digits = codes[start:stop, None] // self.strides % self.k
            return self.lut[digits @ self.weights + self.offsets]

        return engine.log_partition_rows(self.rows, len(codes), picks).tolist()


class QKernelContext:
    """Working box, boundary condition, and a partition-function cache.

    The disorder domain ``eta_domain`` is every site read by a kept
    interaction term: the box itself under a free boundary, the box plus its
    range-r collar under a fixed one.  A full disorder assignment on the
    domain is one integer code, mixed-radix over ``eta_domain`` with the
    first site least significant, each digit an index into
    ``spec.disorder_values``: :meth:`code` encodes, :meth:`eta_of` decodes.
    ``log Z`` is cached per code, so repeated ratio evaluations over a
    common pool of configurations cost one evaluation each; :meth:`logz`
    reads a whole array of codes and evaluates its misses as one batch.

    ``counts`` records the log-Z traffic: ``requests`` (codes read),
    ``swept`` (misses evaluated one code at a time, by
    :meth:`log_partition_at`), ``batched`` (misses evaluated in batches) and
    ``batches`` (:meth:`logz` calls that evaluated a batch).
    """

    def __init__(
        self,
        spec: ModelSpec,
        box: Box,
        bc: BoundaryCondition | None = None,
    ):
        self.spec = spec
        self.box = box
        self.bc = bc if bc is not None else BoundaryCondition.free()
        proto = QuenchedEnsemble(
            spec,
            box,
            {s: spec.disorder_values[0] for s in box.expand(spec.range).sites()},
            self.bc,
        )
        self.term_sets = proto.term_sets
        self.frozen_sigma = proto.frozen_sigma
        domain = set()
        for A in self.term_sets:
            domain.update(A.sites)
        self.eta_domain = tuple(sorted(domain))
        k = len(spec.disorder_values)
        self.n_codes = k ** len(self.eta_domain)
        # per domain site: its value -> digit times the site's stride
        self._places = [
            (s, {v: d * k**i for d, v in enumerate(spec.disorder_values)})
            for i, s in enumerate(self.eta_domain)
        ]
        self._box_sites = SiteSet(box.sites())
        self._logz: dict = {}
        self._mean_logz: dict = {}
        self._term_tables: dict = {}
        self._rows: _RowTable | None = None  # built on the first batch
        self.counts = {"requests": 0, "swept": 0, "batched": 0, "batches": 0}

    # -- disorder codes and the log Z cache --------------------------------------

    def code(self, eta: Mapping) -> int:
        """The code of ``eta`` restricted to the disorder domain."""
        try:
            return sum([place[eta[s]] for s, place in self._places])
        except KeyError:
            missing = [s for s in self.eta_domain if s not in eta]
            if missing:
                raise ConfigError(f"disorder not assigned on sites {missing}") from None
            bad = {s: eta[s] for s in self.eta_domain if eta[s] not in self.spec.disorder_values}
            raise ConfigError(
                f"disorder values {bad} are not in the alphabet {self.spec.disorder_values!r}"
            ) from None

    def strides(self) -> np.ndarray:
        """Place values of the domain sites as int64, refusing wider codes."""
        if self.n_codes > 1 << 63:
            raise CapExceededError("disorder code", math.ceil(math.log2(self.n_codes)), 63)
        k = len(self.spec.disorder_values)
        return k ** np.arange(len(self.eta_domain), dtype=np.int64)

    def eta_of(self, code: int) -> dict:
        """The disorder assignment on the domain that ``code`` encodes."""
        code = int(code)
        if not 0 <= code < self.n_codes:
            raise ValueError(f"disorder code {code} outside [0, {self.n_codes})")
        values = self.spec.disorder_values
        out = {}
        for s in self.eta_domain:
            code, digit = divmod(code, len(values))
            out[s] = values[digit]
        return out

    def patch_codes(self, V: SiteSet, patches, eta_rest: Mapping) -> list:
        """Codes of each patch on ``V`` completed by ``eta_rest`` off ``V``."""
        window = frozenset(V.sites)
        rest = {s: v for s, v in eta_rest.items() if s not in window}
        return [self.code({**rest, **{s: p[s] for s in window if s in p}}) for p in patches]

    def ensemble(self, eta: Mapping) -> QuenchedEnsemble:
        return QuenchedEnsemble(
            self.spec,
            self.box,
            eta,
            self.bc,
            _terms=self.term_sets,
            _frozen=self.frozen_sigma,
            _tables=self._term_tables,
        )

    def log_partition_at(self, eta: Mapping) -> float:
        """log Z at ``eta``; the one place a single-code miss is swept."""
        key = self.code(eta)
        self.counts["requests"] += 1
        hit = self._logz.get(key)
        if hit is None:
            hit = self._logz[key] = self.ensemble(eta).log_partition()
            self.counts["swept"] += 1
        return hit

    def _logz_at(self, code: int) -> float:
        hit = self._logz.get(code)
        if hit is None:
            return self.log_partition_at(self.eta_of(code))
        self.counts["requests"] += 1
        return hit

    def logz(self, codes) -> np.ndarray:
        """log Z at every code of an int64 array, in the array's shape.

        Each distinct miss is evaluated once.  Where the box's spin space
        fits one engine chunk and every term table is finite, the misses are
        one batch through the row table; otherwise :meth:`log_partition_at`
        sweeps them one code at a time.  Every later read is a memo hit.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= self.n_codes):
            raise ValueError(f"disorder codes outside [0, {self.n_codes})")
        flat = codes.ravel().tolist()
        memo = self._logz
        misses = list(dict.fromkeys(c for c in flat if c not in memo))
        swept = 0
        if misses:
            if self._rows is None:
                self._rows = _RowTable(self)
            if self._rows:
                memo.update(zip(misses, self._rows.logz(misses)))
                self.counts["batched"] += len(misses)
                self.counts["batches"] += 1
            else:
                for c in misses:
                    self.log_partition_at(self.eta_of(c))
                swept = len(misses)
        self.counts["requests"] += len(flat) - swept
        return np.array([memo[c] for c in flat]).reshape(codes.shape)

    def _check_window(self, V) -> SiteSet:
        Vset = V if isinstance(V, SiteSet) else SiteSet(V)
        if not Vset.issubset(self._box_sites):
            raise ValueError(f"flip window {Vset.sites} is not inside the box")
        return Vset

    # -- the log-ratio and its expectation route --------------------------------

    def log_q(
        self, V, eta1: Mapping, eta2: Mapping, eta_rest: Mapping
    ) -> float:
        """log Z at (eta1 on V) minus log Z at (eta2 on V), rest shared."""
        Vset = self._check_window(V)
        c1, c2 = self.patch_codes(Vset, (eta1, eta2), eta_rest)
        return self._logz_at(c1) - self._logz_at(c2)

    def log_q_via_expectation(
        self, V, eta1: Mapping, eta2: Mapping, eta_rest: Mapping
    ) -> float:
        """Same ratio through the Gibbs average of exp(-energy difference).

        Computed at the eta2 ensemble by attaching, for every interaction set
        meeting ``V``, the term-by-term difference between the two disorder
        assignments, then reading off the extended normalization.  Kept as a
        genuinely separate evaluation path.
        """
        Vset = self._check_window(V)
        m1, m2 = map(self.eta_of, self.patch_codes(Vset, (eta1, eta2), eta_rest))
        ens = self.ensemble(m2)
        extras = []
        for A in self.term_sets:
            if Vset.isdisjoint(A):
                continue
            extras.append(
                ens.extra_term(
                    A, lambda sig, A=A: self.spec.phi(A, sig, m1) - self.spec.phi(A, sig, m2)
                )
            )
        return ens.log_expectation_exp_neg(extras)

    # -- property report ---------------------------------------------------------

    def check_q_properties(
        self,
        trials: int = 200,
        seed: int = 0,
        tol: float = 1e-10,
    ) -> dict:
        """Measure antisymmetry, flip-support restriction, and the chain rule.

        Random rectangular sub-boxes and disorder triples; returns a JSON
        report with the worst absolute violation per property and a witness
        whenever the tolerance is exceeded.
        """
        rng = np.random.default_rng(seed)
        values = self.spec.disorder_values
        box = self.box

        def rand_subbox(outer_lo, outer_hi):
            lo, hi = [], []
            for a, b in zip(outer_lo, outer_hi):
                u = int(rng.integers(a, b + 1))
                v = int(rng.integers(a, b + 1))
                lo.append(min(u, v))
                hi.append(max(u, v))
            return Box(tuple(lo), tuple(hi))

        def rand_eta(sites):
            picks = rng.integers(0, len(values), size=len(sites))
            return {s: values[int(k)] for s, k in zip(sites, picks)}

        worst = {
            "antisymmetry": (0.0, None),
            "restriction": (0.0, None),
            "chain_rule": (0.0, None),
        }
        for _ in range(trials):
            lam = rand_subbox(box.lower, box.upper)
            lam_sites = tuple(lam.sites())
            sub = rand_subbox(lam.lower, lam.upper)
            sub_sites = tuple(sub.sites())
            rest_sites = [s for s in self.eta_domain if s not in lam_sites]
            eta_rest = rand_eta(rest_sites)
            e1 = rand_eta(lam_sites)
            e2 = rand_eta(lam_sites)
            e3 = rand_eta(lam_sites)

            forward = self.log_q(lam_sites, e1, e2, eta_rest)
            backward = self.log_q(lam_sites, e2, e1, eta_rest)
            self._score(worst, "antisymmetry", abs(forward + backward), {
                "window": [list(s) for s in lam_sites],
                "eta1": [e1[s] for s in lam_sites],
                "eta2": [e2[s] for s in lam_sites],
            })

            # flip only inside the sub-window; the ratio must restrict
            e2r = dict(e1)
            for s in sub_sites:
                e2r[s] = e2[s]
            big = self.log_q(lam_sites, e1, e2r, eta_rest)
            shared = dict(eta_rest)
            for s in lam_sites:
                if s not in sub_sites:
                    shared[s] = e1[s]
            small = self.log_q(sub_sites, e1, e2, shared)
            self._score(worst, "restriction", abs(big - small), {
                "window": [list(s) for s in lam_sites],
                "sub_window": [list(s) for s in sub_sites],
                "eta1": [e1[s] for s in lam_sites],
                "eta2": [e2r[s] for s in lam_sites],
            })

            chain = (
                self.log_q(lam_sites, e1, e2, eta_rest)
                + self.log_q(lam_sites, e2, e3, eta_rest)
                - self.log_q(lam_sites, e1, e3, eta_rest)
            )
            self._score(worst, "chain_rule", abs(chain), {
                "window": [list(s) for s in lam_sites],
                "eta1": [e1[s] for s in lam_sites],
                "eta2": [e2[s] for s in lam_sites],
                "eta3": [e3[s] for s in lam_sites],
            })

        properties = []
        for name, (value, witness) in worst.items():
            entry = {
                "property": name,
                "trials": trials,
                "max_abs_violation": value,
            }
            if value > tol and witness is not None:
                entry["witness"] = witness
            properties.append(entry)
        return {
            "box": self.box.to_json(),
            "boundary": self.bc.kind,
            "trials": trials,
            "seed": seed,
            "tol": tol,
            "properties": properties,
            "pass": all(p["max_abs_violation"] <= tol for p in properties),
        }

    @staticmethod
    def _score(worst: dict, name: str, value: float, witness: dict) -> None:
        if value > worst[name][0]:
            worst[name] = (value, witness)

    # -- conditional law of the joint measure ------------------------------------

    def annealed_log_weight(
        self, V: SiteSet, sigma_full: Mapping, eta_full: Mapping
    ) -> float:
        """Minus the annealed terms meeting ``V`` (the numerator exponent)."""
        total = 0.0
        for A in self.term_sets:
            if not V.isdisjoint(A):
                total -= self.spec.phi(A, sigma_full, eta_full)
        for x in V:
            total += self.spec.log_nu(eta_full[x])
        return total

    def joint_conditional(
        self,
        V,
        sigma_rest: Mapping,
        eta_rest: Mapping,
        cap: int = JOINT_WINDOW_CAP,
    ) -> dict:
        """Conditional law of the joint measure on ``V`` given the rest.

        Returns ``{(spin tuple, disorder tuple): probability}`` over joint
        patches on ``V`` (tuples ordered like ``sorted(V)``), conditioning on
        spins elsewhere in the box and disorder elsewhere in the domain.  The
        weight of a patch divides out the partition function at the patch's
        disorder before normalizing.
        """
        Vset = self._check_window(V)
        if len(Vset) > cap:
            raise CapExceededError("joint conditional window", len(Vset), cap)
        sites = Vset.sites
        sigma_full = dict(self.frozen_sigma)
        for s in self.box.sites():
            if s in Vset:
                continue
            if s not in sigma_rest:
                raise ConfigError(f"conditioning spin missing at {s}")
            sigma_full[s] = sigma_rest[s]

        patches = list(product(self.spec.disorder_values, repeat=len(sites)))
        codes = self.patch_codes(Vset, [dict(zip(sites, e)) for e in patches], eta_rest)
        merged = [(self.eta_of(c), self._logz_at(c)) for c in codes]
        logw = {}
        for spins in product(self.spec.spin_values, repeat=len(sites)):
            for s, v in zip(sites, spins):
                sigma_full[s] = v
            for etas, (eta_full, logz) in zip(patches, merged):
                logw[(spins, etas)] = (
                    self.annealed_log_weight(Vset, sigma_full, eta_full) - logz
                )
        peak = max(logw.values())
        weights = {k: math.exp(v - peak) for k, v in logw.items()}
        norm = sum(weights.values())
        return {k: w / norm for k, w in weights.items()}

    def joint_conditional_all(self, V, cap: int = JOINT_WINDOW_CAP):
        """Conditional tables for every conditioning configuration at once.

        Returns ``(rest_spin_sites, rest_eta_sites, patches, table)`` where
        ``table[i, j, k]`` is the probability of joint patch ``patches[k]``
        given the i-th spin assignment on ``rest_spin_sites`` and the j-th
        disorder assignment on ``rest_eta_sites`` (mixed-radix enumeration,
        first site least significant).  Vectorized over everything; the
        single-call route spot-checks it.
        """
        Vset = self._check_window(V)
        if len(Vset) > cap:
            raise CapExceededError("joint conditional window", len(Vset), cap)
        sites = Vset.sites
        qs = len(self.spec.spin_values)
        qe = len(self.spec.disorder_values)
        box_sites = tuple(self.box.sites())
        rest_spin_sites = tuple(s for s in box_sites if s not in Vset)
        rest_eta_sites = tuple(s for s in self.eta_domain if s not in Vset)
        n_rs = qs ** len(rest_spin_sites)
        n_re = qe ** len(rest_eta_sites)
        patches = [
            (spins, etas)
            for spins in product(self.spec.spin_values, repeat=len(sites))
            for etas in product(self.spec.disorder_values, repeat=len(sites))
        ]
        if n_rs * n_re * len(patches) > 1 << 26:
            raise CapExceededError(
                "joint conditional batch",
                int(math.log2(max(2, n_rs * n_re * len(patches)))),
                26,
            )

        spin_digits = {
            s: (np.arange(n_rs, dtype=np.int64) // qs**i) % qs
            for i, s in enumerate(rest_spin_sites)
        }
        eta_digits = {
            s: (np.arange(n_re, dtype=np.int64) // qe**i) % qe
            for i, s in enumerate(rest_eta_sites)
        }
        eta_vals = list(self.spec.disorder_values)

        # log Z at every (rest, window) disorder pair, the window in patch order
        stride = dict(zip(self.eta_domain, self.strides().tolist()))
        rest_part = sum(
            (eta_digits[s] * stride[s] for s in rest_eta_sites), np.zeros(n_re, dtype=np.int64)
        )
        window_part = [
            sum(eta_vals.index(e) * stride.get(s, 0) for s, e in zip(sites, etas))
            for etas in product(eta_vals, repeat=len(sites))
        ]
        logz = self.logz(rest_part[:, None] + np.array(window_part, dtype=np.int64))

        table = np.zeros((n_rs, n_re, len(patches)))
        for k, (spins, etas) in enumerate(patches):
            # spin-dependent annealed terms: vectorize over rest assignments
            log_num = np.zeros((n_rs, n_re))
            log_num -= logz[None, :, k % len(window_part)]
            for x, e in zip(sites, etas):
                log_num += self.spec.log_nu(e)
            patch_sigma = dict(zip(sites, spins))
            patch_eta = dict(zip(sites, etas))
            for A in self.term_sets:
                if Vset.isdisjoint(A):
                    continue
                contrib = self._term_over_rest(
                    A, patch_sigma, patch_eta, spin_digits, eta_digits,
                    rest_spin_sites, rest_eta_sites, n_rs, n_re,
                )
                log_num -= contrib
            table[:, :, k] = log_num
        peak = table.max(axis=2, keepdims=True)
        np.exp(table - peak, out=table)
        table /= table.sum(axis=2, keepdims=True)
        return rest_spin_sites, rest_eta_sites, patches, table

    def _term_over_rest(
        self, A, patch_sigma, patch_eta, spin_digits, eta_digits,
        rest_spin_sites, rest_eta_sites, n_rs, n_re,
    ) -> np.ndarray:
        """One interaction term evaluated for every conditioning assignment."""
        spin_vals = list(self.spec.spin_values)
        eta_vals = list(self.spec.disorder_values)
        free_spin = [s for s in A if s in set(rest_spin_sites)]
        free_eta = [s for s in A if s in set(rest_eta_sites)]
        qs, qe = len(spin_vals), len(eta_vals)
        out = np.zeros((n_rs, n_re))
        sigma = dict(patch_sigma)
        for s in A:
            if s not in sigma and s not in set(free_spin):
                sigma[s] = self.frozen_sigma[s]
        eta = dict(patch_eta)
        # enumerate the term's own free digits, paint the value by mask
        for sp_combo in product(range(qs), repeat=len(free_spin)):
            for s, dgt in zip(free_spin, sp_combo):
                sigma[s] = spin_vals[dgt]
            mask_s = np.ones(n_rs, dtype=bool)
            for s, dgt in zip(free_spin, sp_combo):
                mask_s &= spin_digits[s] == dgt
            for et_combo in product(range(qe), repeat=len(free_eta)):
                for s, dgt in zip(free_eta, et_combo):
                    eta[s] = eta_vals[dgt]
                mask_e = np.ones(n_re, dtype=bool)
                for s, dgt in zip(free_eta, et_combo):
                    mask_e &= eta_digits[s] == dgt
                v = self.spec.phi(A, sigma, eta)
                if v != 0.0:
                    out[np.ix_(mask_s, mask_e)] += v
        return out
