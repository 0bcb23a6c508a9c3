import pytest

from jointgibbs.errors import ConfigError
from jointgibbs.lattice import SiteSet
from jointgibbs.model import (
    BoundaryCondition,
    load_model,
    make_dilute,
    make_random_bond,
    make_rfim,
    sup_delta_h_single_site,
)


def test_rfim_zero_couplings_vanish():
    spec = make_rfim(0.0, 0.0)
    sigma = {(0,): 1, (1,): -1}
    eta = {(0,): 1, (1,): 1}
    assert spec.phi(SiteSet([(0,)]), sigma, eta) == 0.0
    assert spec.phi(SiteSet([(0,), (1,)]), sigma, eta) == 0.0


def test_rfim_pair_term():
    spec = make_rfim(1.3, 0.5)
    sigma = {(0,): 1, (1,): 1}
    eta = {(0,): 1, (1,): -1}
    assert spec.phi(SiteSet([(0,), (1,)]), sigma, eta) == pytest.approx(-1.3)


def test_rfim_site_term():
    spec = make_rfim(1.3, 0.5)
    assert spec.phi(SiteSet([(0,)]), {(0,): -1}, {(0,): 1}) == pytest.approx(0.5)


def test_random_bond_homogeneous_limit():
    spec = make_random_bond([0.7])
    sigma = {(0,): 1, (1,): -1}
    eta = {(0,): (0.7,), (1,): (0.7,)}
    assert spec.phi(SiteSet([(0,), (1,)]), sigma, eta) == pytest.approx(0.7)


def test_random_bond_spin_glass_alphabet():
    spec = make_random_bond([-0.2, 0.2])
    assert spec.disorder_values == ((-0.2,), (0.2,))
    assert spec.nu[(-0.2,)] == spec.nu[(0.2,)]
    # the bond coupling is read off the lex-smaller endpoint
    sigma = {(0,): 1, (1,): 1}
    assert spec.phi(SiteSet([(0,), (1,)]), sigma,
                    {(0,): (-0.2,), (1,): (0.2,)}) == pytest.approx(0.2)


def test_random_bond_2d_per_direction():
    spec = make_random_bond([0.3], d=2)
    assert spec.disorder_values == ((0.3, 0.3),)
    sigma = {(0, 0): 1, (0, 1): 1, (1, 0): -1}
    eta = {s: (0.3, 0.3) for s in sigma}
    # vertical bond (axis 1) and horizontal bond (axis 0)
    assert spec.phi(SiteSet([(0, 0), (0, 1)]), sigma, eta) == pytest.approx(-0.3)
    assert spec.phi(SiteSet([(0, 0), (1, 0)]), sigma, eta) == pytest.approx(0.3)


def test_dilute_occupation_gates_terms():
    spec = make_dilute(0.9, 0.5)
    sigma = {(0,): 1, (1,): 1}
    assert spec.phi(SiteSet([(0,), (1,)]), sigma, {(0,): 0, (1,): 1}) == 0.0
    assert spec.phi(SiteSet([(0,), (1,)]), sigma, {(0,): 1, (1,): 1}) == pytest.approx(-0.9)


def test_dilute_p_range():
    with pytest.raises(ConfigError):
        make_dilute(0.5, 0.0)
    with pytest.raises(ConfigError):
        make_dilute(0.5, 1.5)


def test_phi_zero_beyond_range():
    spec = make_rfim(0.3, 0.5)
    sigma = {(0,): 1, (3,): 1}
    eta = {(0,): 1, (3,): 1}
    assert spec.phi(SiteSet([(0,), (3,)]), sigma, eta) == 0.0


def test_interaction_sets_cover_neighbours():
    spec = make_rfim(0.3, 0.5)
    sets = spec.interaction_sets(SiteSet([(0, 0)]))
    keys = {A.sites for A in sets}
    assert ((0, 0),) in keys
    assert ((-1, 0), (0, 0)) in keys
    assert ((0, 0), (0, 1)) in keys
    assert len([k for k in keys if len(k) == 2]) == 4


def test_boundary_condition_lookup():
    bc = BoundaryCondition.fixed(fill=1)
    assert bc.spin_at((7, 7)) == 1
    assert BoundaryCondition.free().is_free


def test_load_model_round_trips():
    spec = load_model({"model": "rfim", "J": 0.3, "h": 0.5, "nu": {"-1": 0.4, "1": 0.6}})
    assert spec.name == "rfim"
    assert spec.nu[1] == pytest.approx(0.6)
    spec2 = load_model({"model": "dilute", "J": 0.8, "p": 0.3})
    assert spec2.nu[1] == pytest.approx(0.3)
    spec3 = load_model({"model": "random_bond", "couplings": [-0.2, 0.2]})
    assert spec3.disorder_values == ((-0.2,), (0.2,))
    with pytest.raises(ConfigError):
        load_model({"model": "no_such_model"})


def test_load_model_random_bond_weights_flat_and_per_direction():
    # the law of a site's coupling tuple is the product of its directions'
    # laws; a flat weight list serves every direction
    flat = load_model({"model": "random_bond", "couplings": [0.1, 0.9], "weights": [1, 3], "d": 2})
    p = {0.1: 0.25, 0.9: 0.75}
    assert flat.nu == pytest.approx({(a, b): p[a] * p[b] for a in p for b in p})
    per = load_model({
        "model": "random_bond", "couplings": [[0.1, 0.9], [0.5, 0.7]],
        "weights": [[1, 3], [2, 6]], "d": 2,
    })
    q = {0.5: 0.25, 0.7: 0.75}
    assert per.nu == pytest.approx({(a, b): p[a] * q[b] for a in p for b in q})
    with pytest.raises(ConfigError):
        load_model({"model": "random_bond", "couplings": [[0.1, 0.9], [0.5]],
                    "weights": [[1, 3], [2, 2]], "d": 2})


def test_sup_delta_h_closed_forms():
    # field flip: |h (e1 - e2) s| peaks at 2h
    assert sup_delta_h_single_site(make_rfim(0.3, 0.5), 1) == pytest.approx(1.0)
    # dilute: occupying a site next to two occupied aligned neighbours costs 2J
    assert sup_delta_h_single_site(make_dilute(0.8, 0.5), 1) == pytest.approx(1.6)
    # random bond: only the owned bond reacts, |J1 - J2| at most 0.4
    assert sup_delta_h_single_site(make_random_bond([-0.2, 0.2]), 1) == pytest.approx(0.4)
