from hypothesis import given, strategies as st

from jointgibbs.lattice import (
    Box,
    SiteOrder,
    SiteSet,
    connected_components,
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


def test_box_basics():
    box = Box.from_shape(2, 3)
    assert box.dim == 2
    assert len(box) == 6
    assert (0, 2) in box and (2, 0) not in box
    sites = box.sites()
    assert sites == sorted(sites)
    assert box.expand(1).shape == (4, 5)


def test_siteset_diameter():
    assert SiteSet().diameter() == 0
    assert SiteSet([(0, 0), (2, 1)]).diameter() == 2


@given(st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 3)), max_size=12))
def test_siteset_diameter_is_the_largest_pairwise_distance(sites):
    pairwise = max((linf_dist(a, b) for a in sites for b in sites), default=0)
    assert SiteSet(sites).diameter() == pairwise
