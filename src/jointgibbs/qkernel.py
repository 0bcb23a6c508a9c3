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
be folded back into an interaction.  The terms come from the context's
tables, tabulated once per local disorder pattern; log Z is read by code
through :meth:`QKernelContext.logz`; a patch whose disorder the law does not
charge gets probability 0.  One core serves a single conditioning, every
conditioning at once, and the reconstruction from a potential table.
"""

from __future__ import annotations

import functools
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


def _pattern_digits(k: int, m: int) -> np.ndarray:
    """Digit ``pos`` of every pattern index on ``m`` sites, first site fastest."""
    return np.arange(k**m, dtype=np.int64) // k ** np.arange(m, dtype=np.int64)[:, None] % k


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
        q, n = len(ctx.spec.spin_values), len(ctx._box_sites)
        if q**n > engine._NUMPY_CHUNK or ctx.n_codes > 1 << 63:
            return
        terms, _, eta_weights = ctx._term_arrays()
        fixed, varying = [], []
        for t, (sites, stack) in enumerate(terms):
            if not np.isfinite(stack).all():
                return
            index: dict = {}
            uniq, row_of = [], []
            for table in stack:
                row_of.append(index.setdefault(table.tobytes(), len(uniq)))
                if row_of[-1] == len(uniq):
                    uniq.append(table)
            (fixed if len(uniq) == 1 else varying).append((t, sites, uniq, row_of))
        n_rows = 1 + sum(len(uniq) for _, _, uniq, _ in varying)
        if n_rows * q**n > ROW_TABLE_CAP:
            return
        rows = np.zeros((n_rows, q**n))
        for _, sites, uniq, _ in fixed:
            rows[0] += engine.spread_tables(q, n, sites, uniq)[0]
        # lut[offsets[v] + pattern] is the row the v-th varying term adds at that pattern
        offsets = np.zeros(len(varying), dtype=np.int64)
        lut, top = [], 1
        for v, (_, sites, uniq, row_of) in enumerate(varying):
            offsets[v] = len(lut)
            lut.extend(top + r for r in row_of)
            rows[top:top + len(uniq)] = engine.spread_tables(q, n, sites, uniq)
            top += len(uniq)
        rows.flags.writeable = False
        self.rows = rows
        self.weights = eta_weights[:, [t for t, _, _, _ in varying]]
        self.offsets = offsets
        self.lut = np.array(lut, dtype=np.intp)
        self.strides = ctx.strides()
        self.k = len(ctx.spec.disorder_values)

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
        self._proto = proto  # the region, terms and frozen spins of every ensemble
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
        self._arrays: tuple | None = None  # built on the first read, see _term_arrays
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

    def _digits(self, code: int) -> list:
        """The digits of ``code``, one per domain site, first site first."""
        k = len(self.spec.disorder_values)
        digits = []
        for _ in self.eta_domain:
            code, digit = divmod(code, k)
            digits.append(digit)
        return digits

    def _checked(self, code) -> int:
        code = int(code)
        if not 0 <= code < self.n_codes:
            raise ValueError(f"disorder code {code} outside [0, {self.n_codes})")
        return code

    def eta_of(self, code: int) -> dict:
        """The disorder assignment on the domain that ``code`` encodes."""
        values = self.spec.disorder_values
        return {s: values[d] for s, d in zip(self.eta_domain, self._digits(self._checked(code)))}

    def patch_codes(self, V: SiteSet, patches, eta_rest: Mapping) -> list:
        """Codes of each patch on ``V`` completed by ``eta_rest`` off ``V``."""
        window = frozenset(V.sites)
        rest = {s: v for s, v in eta_rest.items() if s not in window}
        return [self.code({**rest, **{s: p[s] for s in window if s in p}}) for p in patches]

    def ensemble(self, eta: Mapping) -> QuenchedEnsemble:
        """The ensemble of the box at ``eta``, a disorder assignment :meth:`code` accepts."""
        return self._ensemble_at(self.code(eta))

    def _ensemble_at(self, code: int) -> QuenchedEnsemble:
        """The ensemble at ``code``, each term's table picked from its stack by code."""
        terms, _, eta_weights = self._term_arrays()
        rows = (np.array(self._digits(code), dtype=np.int64) @ eta_weights).tolist()
        tables = [(sites, stack[r]) for (sites, stack), r in zip(terms, rows)]
        return self._proto.at_tables(functools.partial(self.eta_of, code), tables)

    def log_partition_at(self, eta) -> float:
        """log Z at ``eta``, a mapping or a code; the one place a single-code miss is swept."""
        key = self.code(eta) if isinstance(eta, Mapping) else self._checked(eta)
        self.counts["requests"] += 1
        hit = self._logz.get(key)
        if hit is None:
            hit = self._logz[key] = self._ensemble_at(key).log_partition()
            self.counts["swept"] += 1
        return hit

    def _logz_at(self, code: int) -> float:
        hit = self._logz.get(code)
        if hit is None:
            return self.log_partition_at(code)
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
                    self.log_partition_at(c)
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
        c1, c2 = self.patch_codes(Vset, (eta1, eta2), eta_rest)
        ens = self._ensemble_at(c2)
        m1, m2 = self.eta_of(c1), ens.eta
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

    def _term_arrays(self) -> tuple:
        """The context's terms as arrays, built once: ``(terms, spin_weights, eta_weights)``.

        ``terms[t]`` is :meth:`QuenchedEnsemble.pattern_tables` of
        ``term_sets[t]``: its spins' indices among the box's sites and its
        tables, one row per disorder pattern on its sites.  Box spin digits
        times ``spin_weights[:, t]`` give a table's column, domain disorder
        digits times ``eta_weights[:, t]`` its row.
        """
        if self._arrays is None:
            q, k = len(self.spec.spin_values), len(self.spec.disorder_values)
            terms = []
            spin_weights = np.zeros((len(self._box_sites), len(self.term_sets)), dtype=np.int64)
            eta_weights = np.zeros((len(self.eta_domain), len(self.term_sets)), dtype=np.int64)
            for t, A in enumerate(self.term_sets):
                free, stack = self._proto.pattern_tables(A)
                stack.flags.writeable = False
                terms.append((free, stack))
                spin_weights[list(free), t] = q ** np.arange(len(free))
                eta_weights[list(map(self.eta_domain.index, A.sites)), t] = k ** np.arange(len(A))
            self._arrays = (terms, spin_weights, eta_weights)
        return self._arrays

    def _window(self, V) -> SiteSet:
        Vset = self._check_window(V)
        if len(Vset) > JOINT_WINDOW_CAP:
            raise CapExceededError("joint conditional window", len(Vset), JOINT_WINDOW_CAP)
        return Vset

    def _conditional_table(self, Vset: SiteSet, spin_rows, rest_codes, deflate) -> tuple:
        """The joint patches on ``Vset`` and their probabilities per conditioning.

        ``spin_rows`` holds box spin digits, one row per spin conditioning;
        ``rest_codes`` one disorder code per disorder conditioning; both have
        digit 0 on ``Vset``.  ``deflate`` maps an int64 array of patch codes
        to values of its shape.  Returns ``(patches, table)``: the patches
        spins outer and disorder inner, each in ``product`` order, and
        ``table[i, j, p]`` the probability of patch ``p`` at spin row ``i``
        and disorder row ``j``.  A patch's log weight is minus the terms
        meeting ``Vset``, plus log nu on ``Vset``, less the deflation at the
        patch's code; a patch the law does not charge gets probability 0.
        """
        spec = self.spec
        q, k, m = len(spec.spin_values), len(spec.disorder_values), len(Vset)
        terms, spin_weights, eta_weights = self._term_arrays()
        meet = [t for t, A in enumerate(self.term_sets) if not Vset.isdisjoint(A)]
        spin_w, eta_w = spin_weights[:, meet], eta_weights[:, meet]
        # digits of the patches in product order: the first site slowest
        spin_patch, eta_patch = (_pattern_digits(b, m)[::-1].T for b in (q, k))
        strides, domain = self.strides(), self.eta_domain
        place = [strides[domain.index(s)] if s in domain else 0 for s in Vset.sites]
        codes = (eta_patch @ np.array(place, dtype=np.int64))[:, None] + np.asarray(rest_codes)
        # per term: its table column at (spin patch, spin row), its row at (disorder
        # patch, disorder row); patch axes lead, so the reductions run over whole slices
        on_window = spin_w[[self._box_sites.sites.index(s) for s in Vset.sites]]
        column = (spin_patch @ on_window)[:, None] + spin_rows @ spin_w
        row = (codes[..., None] // strides % k) @ eta_w
        logw = np.zeros((q**m, len(spin_rows)) + codes.shape)
        for j, t in enumerate(meet):
            logw -= terms[t][1].T[column[..., j]].take(row[..., j], axis=2)
        with np.errstate(divide="ignore"):  # an uncharged value has log nu = -inf
            log_nu = np.log([spec.nu_weight(v) for v in spec.disorder_values])
        logw += log_nu[eta_patch].sum(axis=1)[:, None]
        logw -= deflate(codes)
        logw -= logw.max(axis=(0, 2), keepdims=True)
        np.exp(logw, out=logw)
        logw /= logw.sum(axis=(0, 2), keepdims=True)
        spins, etas = (product(v, repeat=m) for v in (spec.spin_values, spec.disorder_values))
        table = logw.transpose(1, 3, 0, 2).reshape(len(spin_rows), codes.shape[1], -1)
        return list(product(spins, etas)), table

    def _conditional_at(self, Vset: SiteSet, sigma_rest: Mapping, eta_rest: Mapping, deflate):
        """:meth:`_conditional_table` at one conditioning, as a patch dict."""
        digit = {v: d for d, v in enumerate(self.spec.spin_values)}
        row = []
        for s in self._box_sites.sites:
            if s not in Vset and (s not in sigma_rest or sigma_rest[s] not in digit):
                raise ConfigError(
                    f"conditioning spin at {s} is missing or not in the alphabet "
                    f"{self.spec.spin_values!r}"
                )
            row.append(0 if s in Vset else digit[sigma_rest[s]])
        rest = self.code({**eta_rest, **dict.fromkeys(Vset.sites, self.spec.disorder_values[0])})
        patches, table = self._conditional_table(Vset, np.array([row]), [rest], deflate)
        return dict(zip(patches, table[0, 0].tolist()))

    def joint_conditional(self, V, sigma_rest: Mapping, eta_rest: Mapping) -> dict:
        """Conditional law of the joint measure on ``V`` given the rest.

        Returns ``{(spin tuple, disorder tuple): probability}`` over joint
        patches on ``V`` (tuples ordered like ``sorted(V)``), conditioning on
        spins elsewhere in the box and disorder elsewhere in the domain.  The
        weight of a patch is minus the terms meeting ``V``, read from the
        context's term tables, plus log nu on ``V``, less log Z at the
        patch's code, read through :meth:`logz`; a patch whose disorder the
        law does not charge gets 0.
        """
        return self._conditional_at(self._window(V), sigma_rest, eta_rest, self.logz)

    def joint_conditional_all(self, V):
        """Conditional tables for every conditioning configuration at once.

        Returns ``(rest_spin_sites, rest_eta_sites, patches, table)`` where
        ``table[i, j, k]`` is the probability of joint patch ``patches[k]``
        given the i-th spin assignment on ``rest_spin_sites`` and the j-th
        disorder assignment on ``rest_eta_sites`` (mixed-radix enumeration,
        first site least significant).  The weights of :meth:`joint_conditional`
        (terms from the context's tables, 0 where the law does not charge the
        patch), with every log Z read by code in one :meth:`logz` call.
        """
        Vset = self._window(V)
        q, k = len(self.spec.spin_values), len(self.spec.disorder_values)
        spin_cols = [i for i, s in enumerate(self._box_sites.sites) if s not in Vset]
        eta_cols = [i for i, s in enumerate(self.eta_domain) if s not in Vset]
        n_rs, n_re = q ** len(spin_cols), k ** len(eta_cols)
        size = n_rs * n_re * (q * k) ** len(Vset)
        if size > 1 << 26:
            raise CapExceededError("joint conditional batch", int(math.log2(size)), 26)
        spin_rows = np.zeros((n_rs, len(self._box_sites)), dtype=np.int64)
        spin_rows[:, spin_cols] = _pattern_digits(q, len(spin_cols)).T
        rest_codes = _pattern_digits(k, len(eta_cols)).T @ self.strides()[eta_cols]
        patches, table = self._conditional_table(Vset, spin_rows, rest_codes, self.logz)
        rest_spin_sites = tuple(self._box_sites.sites[i] for i in spin_cols)
        return rest_spin_sites, tuple(self.eta_domain[i] for i in eta_cols), patches, table
