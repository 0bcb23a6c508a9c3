import pytest
from hypothesis import given, strategies as st

from jointgibbs.errors import CapExceededError
from jointgibbs.lattice import (
    Box,
    SiteOrder,
    SiteSet,
    boundary,
    connected_components,
    enumerate_subsets,
    linf_dist,
    r_neighborhood,
)

from oracles import bfs_components


def test_unit_ball_1d():
    ball = r_neighborhood(SiteSet([(0,)]), 1)
    assert ball == SiteSet([(-1,), (0,), (1,)])


def test_r_zero_is_identity():
    A = SiteSet([(0,), (5,)])
    assert r_neighborhood(A, 0) == A


def test_two_overlapping_balls_2d():
    # centers two apart: the 3x3 balls share one column, 9 + 9 - 3 sites
    A = SiteSet([(0, 0), (2, 0)])
    ball = r_neighborhood(A, 1)
    dedup = {(x + dx, y + dy) for (x, y) in A
             for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
    assert ball == SiteSet(dedup)
    assert len(ball) == 15


def test_boundary_1d():
    assert boundary(SiteSet([(0,)]), 1) == SiteSet([(-1,), (1,)])


def test_boundary_of_full_window_is_ring():
    box = Box.from_shape(3, 3)
    ring = boundary(SiteSet.from_box(box), 1)
    assert len(ring) == 16
    assert ring.isdisjoint(SiteSet.from_box(box))


def test_boundary_empty():
    assert boundary(SiteSet(), 1) == SiteSet()


@given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=6),
       st.integers(0, 2))
def test_boundary_decomposition(raw, r):
    A = SiteSet(raw)
    nb = r_neighborhood(A, r)
    bd = boundary(A, r)
    assert bd.isdisjoint(A)
    assert (bd | A) == nb


def test_enumerate_subsets_two_sites():
    subs = list(enumerate_subsets(SiteSet([(0,), (1,)])))
    assert subs == [
        SiteSet(),
        SiteSet([(0,)]),
        SiteSet([(1,)]),
        SiteSet([(0,), (1,)]),
    ]


def test_enumerate_subsets_count():
    subs = list(enumerate_subsets(Box.from_shape(10)))
    assert len(subs) == 1024
    assert len({s.sites for s in subs}) == 1024


def test_enumerate_subsets_empty_window():
    assert list(enumerate_subsets(SiteSet())) == [SiteSet()]


def test_enumerate_subsets_cap():
    with pytest.raises(CapExceededError):
        next(enumerate_subsets(Box.from_shape(30)))


def test_components_1d():
    comps = connected_components(SiteSet([(0,), (1,), (3,)]))
    assert comps == [SiteSet([(0,), (1,)]), SiteSet([(3,)])]


def test_components_empty():
    assert connected_components(SiteSet()) == []


def test_components_plus_shape():
    plus = SiteSet([(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)])
    comps = connected_components(plus)
    assert len(comps) == 1
    assert comps[0] == plus


@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=14))
def test_components_match_bfs_oracle(raw):
    comps = connected_components(SiteSet(raw))
    assert sorted(c.sites for c in comps) == bfs_components(raw)
    # partition: no site lost, none duplicated
    flat = [s for c in comps for s in c]
    assert sorted(flat) == sorted(raw)
    assert len(flat) == len(set(flat))


def test_spiral_order_is_bijection_on_centered_boxes():
    for shape in [(3, 3), (5, 5), (4,)]:
        box = Box.from_shape(*shape)
        order = SiteOrder.spiral(box.center())
        ranks = order.rank_map(box.sites())
        assert sorted(ranks.values()) == list(range(1, len(box) + 1))
        # ranks never decrease with distance from the center
        by_rank = sorted(ranks, key=ranks.get)
        dists = [linf_dist(s, box.center()) for s in by_rank]
        assert dists == sorted(dists)


def test_lexicographic_order_min():
    order = SiteOrder.lexicographic()
    assert order.min([(2, 0), (0, 2), (1, 1)]) == (0, 2)


@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1))
def test_mask_roundtrip(raw):
    window = Box.from_shape(4, 4)
    A = SiteSet(raw)
    assert SiteSet.from_mask(window, A.mask(window)) == A


def test_box_basics():
    box = Box.from_shape(2, 3)
    assert box.dim == 2
    assert len(box) == 6
    assert (0, 2) in box and (2, 0) not in box
    sites = box.sites()
    assert sites == sorted(sites)
    assert [box.index(s) for s in sites] == list(range(6))
    assert box.expand(1).shape == (4, 5)


def test_siteset_diameter():
    assert SiteSet().diameter() == 0
    assert SiteSet([(0, 0), (2, 1)]).diameter() == 2


@given(st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 3)), max_size=12))
def test_siteset_diameter_is_the_largest_pairwise_distance(sites):
    pairwise = max((linf_dist(a, b) for a in sites for b in sites), default=0)
    assert SiteSet(sites).diameter() == pairwise
