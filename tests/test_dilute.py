import math
from itertools import combinations, product

import numpy as np
import pytest

from jointgibbs.errors import CapExceededError
from jointgibbs.lattice import Box, SiteSet
from jointgibbs.model import make_dilute
from jointgibbs.potentials import (
    ClusterPotentialTable,
    PotentialTable,
    cluster_potential,
    dilute_vacuum_coeff,
    ising_free_log_partition,
    mobius_potential,
    partial_sum,
    reconstruct_conditional,
)
from jointgibbs.qkernel import QKernelContext

import oracles

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# free-boundary Ising normalizations
# ---------------------------------------------------------------------------


def test_ising_logz_values():
    assert ising_free_log_partition([], 0.7) == 0.0
    assert ising_free_log_partition([(0,)], 0.7) == pytest.approx(LOG2, abs=1e-13)
    assert ising_free_log_partition([(0,), (1,)], 0.8) == pytest.approx(
        1.6770479214482843, abs=1e-12
    )
    plaquette = [(0, 0), (0, 1), (1, 0), (1, 1)]
    brute = oracles.brute_log_partition(
        plaquette, oracles.dilute_energy(0.8, plaquette, {s: 1 for s in plaquette})
    )
    assert ising_free_log_partition(plaquette, 0.8) == pytest.approx(brute, abs=1e-12)


def test_ising_logz_cap():
    sites = [(i,) for i in range(25)]
    with pytest.raises(CapExceededError):
        ising_free_log_partition(sites, 0.5)


# ---------------------------------------------------------------------------
# vacuum coefficients
# ---------------------------------------------------------------------------


def test_vacuum_coeff_singleton_vanishes():
    assert dilute_vacuum_coeff(0.8, [(0,)]) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "J,want",
    [
        (0.3, 0.044340769925940306),
        (0.8, 0.2907535603283936),
        (1.5, 0.8554401710137967),
    ],
)
def test_vacuum_coeff_bond_is_log_cosh(J, want):
    got = dilute_vacuum_coeff(J, [(0,), (1,)])
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(math.log(math.cosh(J)), abs=1e-12)


def test_vacuum_coeff_disconnected_sets_vanish():
    assert dilute_vacuum_coeff(0.8, [(0,), (2,)]) == pytest.approx(0.0, abs=1e-12)
    assert dilute_vacuum_coeff(0.8, [(0, 0), (1, 1)]) == pytest.approx(0.0, abs=1e-12)


def test_vacuum_coeff_trees_cancel_cycles_survive():
    # beyond pairs, only sets carrying a lattice cycle contribute
    assert dilute_vacuum_coeff(0.8, [(0,), (1,), (2,)]) == pytest.approx(
        0.0, abs=1e-12
    )
    plaquette = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert dilute_vacuum_coeff(0.8, plaquette) == pytest.approx(
        0.17767104750547213, abs=1e-12
    )


@pytest.mark.parametrize(
    "shape,want",
    [
        ((1, 2), 0.2907535603283936),
        ((1, 3), 2 * 0.2907535603283936),
        ((2, 2), 1.340685288819047),
        ((2, 3), 2.423660758454285),
    ],
)
def test_vacuum_coeffs_telescope_to_the_occupied_logz(shape, want):
    # subset sums of coefficients rebuild log(Z0 / 2^n) on the full window
    box = Box.from_shape(*shape)
    sites = box.sites()
    total = 0.0
    for k in range(1, len(sites) + 1):
        for A in combinations(sites, k):
            total += dilute_vacuum_coeff(0.8, A)
    assert total == pytest.approx(want, abs=1e-10)
    assert total == pytest.approx(
        ising_free_log_partition(sites, 0.8) - len(sites) * LOG2, abs=1e-10
    )


def test_vacuum_coeff_matches_subset_transform():
    # the direct signed sum against the dense butterfly, entry by entry
    sites = Box.from_shape(2, 2).sites()
    table = mobius_potential(
        sites, lambda A: ising_free_log_partition(A.sites, 0.8) - len(A) * LOG2
    )
    for k in range(1, 5):
        for A in combinations(sites, k):
            assert table.value(A) == pytest.approx(
                dilute_vacuum_coeff(0.8, A), abs=1e-11
            )


def min_induced_degree(A):
    degree = {s: 0 for s in A}
    for x, y in oracles.nn_pairs(A):
        degree[x] += 1
        degree[y] += 1
    return min(degree.values())


@pytest.mark.parametrize("shape", [(6,), (2, 3)])
def test_vacuum_coeff_support(shape):
    # exhaustively: nearest-neighbour pairs contribute; larger sets only
    # when connected with every site on at least two bonds (pendant sites
    # cancel the same way whole trees do)
    J = 0.8
    sites = Box.from_shape(*shape).sites()
    for k in range(1, len(sites) + 1):
        for A in combinations(sites, k):
            c = dilute_vacuum_coeff(J, A)
            comps = oracles.bfs_components(A)
            n_bonds = len(oracles.nn_pairs(A))
            if k == 2 and n_bonds == 1:
                assert abs(c) > 1e-3, A
            elif len(comps) > 1 or min_induced_degree(A) < 2:
                assert c == pytest.approx(0.0, abs=1e-11), A
            else:
                assert abs(c) > 1e-6, A


def test_vacuum_coeff_support_frozen_2x3():
    sites = Box.from_shape(2, 3).sites()
    nonzero = {}
    for k in range(1, 7):
        for A in combinations(sites, k):
            c = dilute_vacuum_coeff(0.8, A)
            if abs(c) > 1e-10:
                nonzero[A] = c
    pairs = [tuple(sorted(p)) for p in oracles.nn_pairs(sites)]
    plaquettes = [
        ((0, 0), (0, 1), (1, 0), (1, 1)),
        ((0, 1), (0, 2), (1, 1), (1, 2)),
    ]
    assert set(nonzero) == set(pairs) | set(plaquettes) | {tuple(sites)}
    for A in plaquettes:
        assert nonzero[A] == pytest.approx(0.17767104750547213, abs=1e-12)
    assert nonzero[tuple(sites)] == pytest.approx(0.03304374114489065, abs=1e-11)


# ---------------------------------------------------------------------------
# occupied-component potential
# ---------------------------------------------------------------------------


def test_cluster_potential_all_empty():
    window = Box.from_shape(3)
    table = cluster_potential(0.8, {s: 0 for s in window.sites()}, window)
    assert table.support() == []
    assert table.value([(0,), (1,)]) == 0.0


def test_cluster_potential_single_site():
    window = Box.from_shape(3)
    eta = {(0,): 0, (1,): 1, (2,): 0}
    raw = cluster_potential(0.8, eta, window, normalized=False)
    sets = raw.support()
    assert len(sets) == 1
    assert sets[0].sites == ((0,), (1,), (2,))  # the closed neighbourhood
    assert raw.value(sets[0], eta) == pytest.approx(LOG2, abs=1e-13)
    normed = cluster_potential(0.8, eta, window)
    assert normed.value(sets[0], eta) == pytest.approx(0.0, abs=1e-13)


def test_cluster_potential_occupied_bond():
    window = Box.from_shape(4)
    eta = {(0,): 1, (1,): 1, (2,): 0, (3,): 0}
    raw = cluster_potential(0.8, eta, window, normalized=False)
    A = raw.support()[0]
    assert A.sites == ((0,), (1,), (2,))
    assert raw.value(A, eta) == pytest.approx(
        math.log(4 * math.cosh(0.8)), abs=1e-12
    )
    normed = cluster_potential(0.8, eta, window)
    assert normed.value(A, eta) == pytest.approx(
        math.log(math.cosh(0.8)), abs=1e-12
    )


def test_cluster_potential_ring_component():
    # a ring of occupied sites around an empty centre: one component whose
    # carrier (closed neighbourhood) swallows the centre site
    window = Box.from_shape(3, 5)
    ring = [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 2),
        (2, 0), (2, 1), (2, 2),
    ]
    eta = {s: (1 if s in ring else 0) for s in window.sites()}
    table = cluster_potential(0.6, eta, window)
    sets = table.support()
    assert len(sets) == 1
    carrier = sets[0]
    assert (1, 1) in carrier  # the empty centre is part of the carrier
    assert (0, 3) in carrier  # closure extends one step right of the ring
    assert (0, 4) not in carrier
    want = ising_free_log_partition(ring, 0.6) - len(ring) * LOG2
    assert table.value(carrier, eta) == pytest.approx(want, abs=1e-12)
    # detection is a function of the disorder on the carrier alone
    eta2 = dict(eta)
    eta2[(2, 4)] = 1  # occupy a site outside the carrier
    assert table.value(carrier, eta2) == pytest.approx(want, abs=1e-12)
    # and the new isolated site is carried on its own set
    assert len(table.support(eta2)) == 2


def test_cluster_potential_two_components():
    window = Box.from_shape(5)
    eta = {(0,): 1, (1,): 0, (2,): 0, (3,): 1, (4,): 1}
    table = cluster_potential(0.8, eta, window, normalized=False)
    sets = sorted(A.sites for A in table.support())
    assert sets == [((0,), (1,)), ((2,), (3,), (4,))]
    total = sum(table.value(A, eta) for A in table.support())
    assert total == pytest.approx(LOG2 + math.log(4 * math.cosh(0.8)), abs=1e-12)


def test_cluster_reconstruction_matches_direct():
    J, p = 0.8, 0.35
    spec = make_dilute(J=J, p=p)
    box = Box.from_shape(2, 3)
    ctx = QKernelContext(spec, box)
    sites = box.sites()
    V = [(0, 1)]
    rest = [s for s in sites if s != (0, 1)]
    rng = np.random.default_rng(51)
    for _ in range(4):
        sigma_rest = {s: int(rng.choice([-1, 1])) for s in rest}
        eta_rest = {s: int(rng.choice([0, 1])) for s in rest}
        table = ClusterPotentialTable(J, box, {})
        direct = ctx.joint_conditional(V, sigma_rest, eta_rest)
        rebuilt = reconstruct_conditional(ctx, table, V, sites, sigma_rest, eta_rest)
        for key, prob in direct.items():
            assert rebuilt[key] == pytest.approx(prob, abs=1e-10)


def test_cluster_reconstruction_every_disorder_pattern():
    # the carrier construction must hold for every occupation pattern of the
    # conditioning region, rings included
    J = 0.9
    spec = make_dilute(J=J, p=0.4)
    box = Box.from_shape(2, 3)
    ctx = QKernelContext(spec, box)
    sites = box.sites()
    V = [(1, 1)]
    rest = [s for s in sites if s != (1, 1)]
    table = ClusterPotentialTable(J, box, {})
    sigma_rest = {s: 1 for s in rest}
    for etas in product((0, 1), repeat=len(rest)):
        eta_rest = dict(zip(rest, etas))
        direct = ctx.joint_conditional(V, sigma_rest, eta_rest)
        rebuilt = reconstruct_conditional(ctx, table, V, sites, sigma_rest, eta_rest)
        for key, prob in direct.items():
            assert rebuilt[key] == pytest.approx(prob, abs=1e-10)


class MaterializedAtEachEta(PotentialTable):
    """A cluster table read through its plain table at every configuration."""

    def __init__(self, cluster):
        super().__init__(cluster.window_box)
        self.cluster = cluster

    def support(self, eta=None):
        return self.cluster.materialize(eta).support(eta)

    def value(self, A, eta=None):
        return self.cluster.materialize(eta).value(A, eta)


def test_cluster_partial_sums_equal_the_materialized_table():
    # the cluster table needs no reader of its own: support and value suffice
    J = 0.8
    box = Box.from_shape(3, 4)
    sites = box.sites()
    table = ClusterPotentialTable(J, box, {})
    ctx = QKernelContext(make_dilute(J=J, p=0.5), box)
    rng = np.random.default_rng(57)
    for _ in range(40):
        eta = {s: int(rng.integers(0, 2)) for s in sites}
        flat = table.materialize(eta)
        delta = [s for s in sites if rng.random() < 0.8]
        V = [s for s in delta if rng.random() < 0.3] or delta[:1]
        # the two supports hold the same sets, perhaps listed in another order
        assert partial_sum(table, V, delta, eta) == pytest.approx(
            partial_sum(flat, V, delta, eta), abs=1e-13
        )
        assert partial_sum(table, V, sites, eta) == pytest.approx(
            oracles.partial_sum_loop(flat, V, sites, eta), abs=1e-13
        )
        x = sites[int(rng.integers(0, len(sites)))]
        rest = [s for s in sites if s != x]
        sigma_rest = {s: int(rng.choice([-1, 1])) for s in rest}
        eta_rest = {s: eta[s] for s in rest}
        got = reconstruct_conditional(ctx, table, [x], sites, sigma_rest, eta_rest)
        want = reconstruct_conditional(
            ctx, MaterializedAtEachEta(table), [x], sites, sigma_rest, eta_rest
        )
        assert got.keys() == want.keys()
        for key, prob in want.items():
            assert got[key] == pytest.approx(prob, abs=1e-13)


def test_cluster_materialize_and_json():
    window = Box.from_shape(3)
    eta = {(0,): 1, (1,): 1, (2,): 0}
    table = cluster_potential(0.8, eta, window)
    flat = table.materialize()
    assert flat.meta["kind"] == "cluster"
    for A in table.support():
        assert flat.value(A) == pytest.approx(table.value(A, eta), abs=1e-13)
    blob = table.to_json()
    assert blob["meta"]["J"] == 0.8
    assert blob["meta"]["normalized"] is True