"""Brute-force reference implementations used as independent oracles.

Everything here is deliberately literal: nested loops over whole
configuration spaces, hand-written Hamiltonians for the built-in models,
no caching, no incremental tricks.  The package's fast paths are tested
against these, never the other way around.
"""

import math
from itertools import combinations, product


def log_sum_exp(values):
    values = list(values)
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def nn_pairs(sites):
    """Unordered nearest-neighbour (l1 distance 1) pairs within a site list."""
    have = set(sites)
    pairs = []
    for s in sites:
        for axis in range(len(s)):
            t = s[:axis] + (s[axis] + 1,) + s[axis + 1:]
            if t in have:
                pairs.append((s, t))
    return pairs


# ---------------------------------------------------------------------------
# hand-written Hamiltonians (free boundary unless frozen spins are passed)
# ---------------------------------------------------------------------------


def rfim_energy(J, h, sites, eta, frozen=None):
    """-J sum ss' over nn pairs, -h sum eta s over sites; frozen spins extend pairs."""
    frozen = dict(frozen or {})
    all_sites = list(sites) + list(frozen)
    pairs = [p for p in nn_pairs(all_sites) if p[0] in set(sites) or p[1] in set(sites)]

    def energy(sigma):
        full = dict(frozen)
        full.update(sigma)
        e = 0.0
        for x, y in pairs:
            e -= J * full[x] * full[y]
        for x in sites:
            e -= h * eta[x] * full[x]
        return e

    return energy


def random_bond_energy(sites, eta, frozen=None):
    """-J_{x,e} ss' with the coupling tuple stored at the lex-smaller endpoint."""
    frozen = dict(frozen or {})
    all_sites = list(sites) + list(frozen)
    pairs = [p for p in nn_pairs(all_sites) if p[0] in set(sites) or p[1] in set(sites)]

    def energy(sigma):
        full = dict(frozen)
        full.update(sigma)
        e = 0.0
        for x, y in pairs:
            axis = next(a for a in range(len(x)) if x[a] != y[a])
            coup = eta[x]
            j = coup[axis] if isinstance(coup, tuple) else coup
            e -= j * full[x] * full[y]
        return e

    return energy


def dilute_energy(J, sites, eta, frozen=None, frozen_eta=None):
    """-J eta eta' ss' on nn pairs between occupied sites."""
    frozen = dict(frozen or {})
    occ = dict(eta)
    occ.update(frozen_eta or {})
    all_sites = list(sites) + list(frozen)
    pairs = [p for p in nn_pairs(all_sites) if p[0] in set(sites) or p[1] in set(sites)]

    def energy(sigma):
        full = dict(frozen)
        full.update(sigma)
        e = 0.0
        for x, y in pairs:
            e -= J * occ[x] * occ[y] * full[x] * full[y]
        return e

    return energy


# ---------------------------------------------------------------------------
# exhaustive sums
# ---------------------------------------------------------------------------


def brute_log_partition(free_sites, energy, spin_values=(-1, 1)):
    """log of the sum over all spin assignments of exp(-energy)."""
    free_sites = list(free_sites)
    logs = []
    for combo in product(spin_values, repeat=len(free_sites)):
        logs.append(-energy(dict(zip(free_sites, combo))))
    return log_sum_exp(logs)


def brute_expectation(free_sites, energy, obs, spin_values=(-1, 1)):
    """Gibbs average of obs(sigma_map) by direct enumeration."""
    free_sites = list(free_sites)
    logs, values = [], []
    for combo in product(spin_values, repeat=len(free_sites)):
        sigma = dict(zip(free_sites, combo))
        logs.append(-energy(sigma))
        values.append(obs(sigma))
    m = max(logs)
    weights = [math.exp(v - m) for v in logs]
    return sum(w * o for w, o in zip(weights, values)) / sum(weights)


def brute_joint_table(sites, spin_values, disorder_values, nu, energy_of):
    """The exact joint law: P(sigma, eta) ~ nu(eta) exp(-H[eta](sigma)) / Z[eta].

    ``energy_of(sigma_map, eta_map)`` is the quenched Hamiltonian.  Keys are
    (spins, etas) tuples ordered like ``sites``.  Unnormalized nu weights are
    fine; the constant divides out.
    """
    sites = list(sites)
    table = {}
    for etas in product(disorder_values, repeat=len(sites)):
        eta = dict(zip(sites, etas))
        configs = list(product(spin_values, repeat=len(sites)))
        logs = [-energy_of(dict(zip(sites, spins)), eta) for spins in configs]
        logz = log_sum_exp(logs)
        lognu = sum(math.log(nu[e]) for e in etas)
        for spins, log_w in zip(configs, logs):
            table[(spins, etas)] = math.exp(log_w + lognu - logz)
    total = sum(table.values())
    return {k: v / total for k, v in table.items()}


def brute_conditional(joint, sites, V):
    """Condition a joint table on everything off V.

    Returns {(rest_spins, rest_etas): {(patch_spins, patch_etas): prob}} with
    the rest/patch tuples ordered like the originals with V removed/kept.
    """
    sites = list(sites)
    vset = set(V)
    vidx = [i for i, s in enumerate(sites) if s in vset]
    ridx = [i for i in range(len(sites)) if i not in vidx]
    groups = {}
    for (spins, etas), p in joint.items():
        rest = (tuple(spins[i] for i in ridx), tuple(etas[i] for i in ridx))
        patch = (tuple(spins[i] for i in vidx), tuple(etas[i] for i in vidx))
        bucket = groups.setdefault(rest, {})
        bucket[patch] = bucket.get(patch, 0.0) + p
    out = {}
    for rest, patches in groups.items():
        z = sum(patches.values())
        out[rest] = {k: v / z for k, v in patches.items()}
    return out


# ---------------------------------------------------------------------------
# subset transform and components
# ---------------------------------------------------------------------------


def mobius_signed(window_sites, energy):
    """U_A by the literal signed subset sum, recomputed from scratch per A."""
    out = {}
    sites = list(window_sites)
    for k in range(1, len(sites) + 1):
        for A in combinations(sites, k):
            total = 0.0
            for j in range(len(A) + 1):
                for B in combinations(A, j):
                    total += (-1.0) ** (len(A) - j) * energy(B)
            out[A] = total
    return out


def mobius_nested(A, energy):
    """U_A as nested site differences, computed for A alone.

    The same signed subset sum as :func:`mobius_signed`, grouped one site at
    a time in the order of ``A``: the difference operator of A's last site
    applied to that of the one before, and so on down to the energy.  That
    grouping is the butterfly's, so its values round the same way.
    """

    def diff(S, members):
        if not members:
            return energy(S)
        *head, last = members
        value = diff(S, head)
        if last in S:
            value = value - diff(tuple(s for s in S if s != last), head)
        return value

    return diff(tuple(A), list(A))


def subset_relative_energy_table(ctx, alpha, window):
    """The relative-energy table one pattern at a time, with no shared rows.

    ``relative_energy`` per (subset, disorder pattern), then
    :func:`mobius_nested` per pattern of each entry.  Returns
    ``{sites: values}`` with the values ordered like a tabulated entry's
    (first site's digit fastest, digits indexing the alphabet).
    """
    from jointgibbs.potentials import relative_energy

    values = ctx.spec.disorder_values
    sites = sorted(window)
    out = {}
    for k in range(1, len(sites) + 1):
        for A in combinations(sites, k):
            row = []
            for combo in product(values, repeat=k):
                eta = dict(zip(A, reversed(combo)))
                row.append(mobius_nested(A, lambda B: relative_energy(ctx, B, eta, alpha)))
            out[A] = row
    return out


def vacuum_relative_energy(ctx, V, eta_V, fill):
    """log Z(vacuum + eta_V) - log Z(vacuum): the point-mass relative energy.

    The vacuum sets ``fill`` on every disorder site; ``eta_V`` overrides it
    on ``V``.  Empty ``V`` reads 0.0.
    """
    if not V:
        return 0.0
    vac = {s: fill for s in ctx.eta_domain}
    num = dict(vac)
    for s in V:
        num[s] = eta_V[s]
    return ctx.log_partition_at(num) - ctx.log_partition_at(vac)


def vacuum_martingale(ctx, V, delta, eta_V, fill):
    """The point-mass martingale residual: the ``delta`` energy at the vacuum
    extension of the patch, less the ``V`` energy."""
    patch = {s: fill for s in delta if s not in V}
    for s in V:
        patch[s] = eta_V[s]
    return vacuum_relative_energy(ctx, delta, patch, fill) - vacuum_relative_energy(
        ctx, V, eta_V, fill
    )


def vacuum_log_q(ctx, V, delta, eta, fill):
    """The point-mass partial-sum target: flip ``V`` from ``eta`` to the vacuum,
    disorder at ``eta`` on the rest of ``delta`` and at the vacuum beyond."""
    env = {s: eta[s] for s in delta if s not in V and s in ctx.eta_domain}
    for s in ctx.eta_domain:
        if s not in delta:
            env[s] = fill
    return ctx.log_q(V, {s: eta[s] for s in V}, {s: fill for s in V}, env)


def vacuum_pair_brackets(ctx, cell, x, m, eta, fill):
    """The point-mass shell-cell terms: per site ``y`` added by shell ``m``,
    the pair-flip bracket of (x, y) to the vacuum, disorder kept at ``eta`` on
    the smaller cell and earlier shell sites and at the vacuum elsewhere.
    At m=1 the bare single-site relative energy comes first.  ``cell(m)``
    returns the sorted sites of shell cell m (with ``cell(0)`` = ``[x]``).
    """
    from jointgibbs.potentials import pair_flip_bracket

    small = cell(m - 1)
    new_sites = [y for y in cell(m) if y not in small]
    out = []
    if m == 1:
        out.append((x, vacuum_relative_energy(ctx, [x], {x: eta[x]}, fill)))
    for i, y in enumerate(new_sites):
        kept = [s for s in small if s != x] + new_sites[:i]
        env = {s: eta[s] for s in kept}
        for s in ctx.eta_domain:
            if s != x and s != y and s not in kept:
                env[s] = fill
        bracket = pair_flip_bracket(
            ctx, x, y, {x: eta[x], y: eta[y]}, {x: fill, y: fill}, env
        )
        out.append((y, bracket))
    return out


def partial_sum_loop(table, V, delta, eta=None):
    """Entries inside ``delta`` that meet ``V``, added one ``table.value`` at a time.

    ``V`` and ``delta`` are site lists; the sum runs over ``table.support(eta)``
    in its order, from 0.0.
    """
    V, delta = set(V), set(delta)
    total = 0.0
    for A in table.support(eta):
        if V.isdisjoint(A.sites) or not delta.issuperset(A.sites):
            continue
        total += table.value(A, eta)
    return total


def alpha_normalization_loop(table, alpha, law):
    """Worst one-site average of any table entry, one pattern at a time.

    Each entry averaged over one site's law values (a point mass: the vacuum
    at weight 1), the other sites running over the entry's whole alphabet.
    """
    if not alpha.is_product:
        law = {alpha.vacuum_fill: 1.0}
    items = [(v, w) for v, w in law.items() if w > 0]
    worst = 0.0
    for A, entry in table.items():
        key = A.sites
        if not hasattr(entry, "values"):
            worst = max(worst, abs(entry.v))
            continue
        for x in key:
            others = [s for s in key if s != x]
            for combo in product(entry.alphabet, repeat=len(others)):
                patch = dict(zip(others, combo))
                acc = 0.0
                for v, w in items:
                    patch[x] = v
                    acc += w * entry.value(key, patch)
                worst = max(worst, abs(acc))
    return worst


def center_potential_loop(table, law):
    """Every entry less its product-law mean, one disorder pattern at a time.

    The mean sums ``weight * value`` from 0.0 over ``product`` order of the
    law's values, each weight multiplied left to right from 1.0; the
    centered entry is tabulated over the law's values, first site fastest.
    Returns ``{sites: (values, alphabet)}``, with ``None`` for a constant
    entry (centered to 0.0).
    """
    items = [(v, w) for v, w in law.items() if w > 0]
    values = [v for v, _ in items]
    k = len(items)
    out = {}
    for A, entry in table.items():
        key = A.sites
        if not hasattr(entry, "values"):
            out[key] = None
            continue
        mean = 0.0
        for combo in product(items, repeat=len(key)):
            w = 1.0
            for _, wv in combo:
                w *= wv
            mean += w * entry.value(key, {s: v for s, (v, _) in zip(key, combo)})
        tab = [0.0] * k ** len(key)
        for combo in product(values, repeat=len(key)):
            j = sum(values.index(v) * k**pos for pos, v in enumerate(combo))
            tab[j] = entry.value(key, dict(zip(key, combo))) - mean
        out[key] = (tab, tuple(values))
    return out


def bfs_components(sites):
    """Nearest-neighbour components by breadth-first search."""
    remaining = set(sites)
    comps = []
    while remaining:
        seed = min(remaining)
        queue = [seed]
        remaining.discard(seed)
        comp = {seed}
        while queue:
            s = queue.pop()
            for axis in range(len(s)):
                for step in (-1, 1):
                    t = s[:axis] + (s[axis] + step,) + s[axis + 1:]
                    if t in remaining:
                        remaining.discard(t)
                        comp.add(t)
                        queue.append(t)
        comps.append(tuple(sorted(comp)))
    comps.sort()
    return comps


# ---------------------------------------------------------------------------
# transfer matrix, term by term
# ---------------------------------------------------------------------------


def transfer_log_partition_termwise(system, plan):
    """log Z by the column sweep, the column energies built one term at a time.

    Each term's table is read at its column digits and added to its
    column's (or column pair's) energies from zero, in term order; the sweep
    over the columns is the engine's, line for line.
    """
    import numpy as np

    q, cols = system.q, plan.columns
    where = {s: (c, j) for c, sites in enumerate(cols) for j, s in enumerate(sites)}

    def local(c, sites):
        # the part of a term's local code that column c's digits contribute
        codes = np.arange(q ** len(cols[c]))
        idx = np.zeros(codes.shape, dtype=np.int64)
        for k, s in enumerate(sites):
            col, j = where[s]
            if col == c:
                idx += ((codes // q**j) % q) * q**k
        return idx

    intra = [np.zeros(q ** len(c)) for c in cols]
    inter = [None] + [
        np.zeros((q ** len(cols[c - 1]), q ** len(cols[c]))) for c in range(1, len(cols))
    ]
    for sites, tab in zip(system.term_sites, system.term_tables):
        touched = sorted({where[s][0] for s in sites})
        if len(touched) == 1:
            intra[touched[0]] += tab[local(touched[0], sites)]
        else:
            c0, c1 = touched
            inter[c1] += tab[local(c0, sites)[:, None] + local(c1, sites)[None, :]]

    log_scale = 0.0
    shift = float(intra[0].min())
    v = np.exp(-(intra[0] - shift))
    log_scale -= shift
    for c in range(1, len(cols)):
        b = -(inter[c] + intra[c][None, :])
        m = float(b.max())
        w = v @ np.exp(b - m)
        log_scale += m
        peak = float(w.max())
        v = w / peak
        log_scale += math.log(peak)
    return log_scale + math.log(float(v.sum())) - system.const
