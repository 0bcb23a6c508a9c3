import math
from itertools import product

import numpy as np
import pytest

from jointgibbs import engine
from jointgibbs.errors import ConfigError, UnsupportedObservableError
from jointgibbs.lattice import Box, SiteSet
from jointgibbs.model import (
    BoundaryCondition,
    make_custom,
    make_dilute,
    make_random_bond,
    make_rfim,
)
from jointgibbs.quenched import QuenchedEnsemble

import oracles


def eta_on(sites, value=1):
    return {s: value for s in sites}


def test_free_spin_without_interactions():
    spec = make_rfim(J=0.0, h=0.0)
    ens = QuenchedEnsemble(spec, Box.from_shape(1), {(0,): 1})
    assert ens.log_partition() == pytest.approx(math.log(2), abs=1e-13)


def test_two_spin_bond():
    spec = make_rfim(J=1.0, h=0.0)
    box = Box.from_shape(2)
    ens = QuenchedEnsemble(spec, box, eta_on(box.sites()))
    # 2 e^J + 2 e^-J
    assert ens.log_partition() == pytest.approx(1.8200751916029179, abs=1e-12)


def test_single_site_field():
    spec = make_rfim(J=0.3, h=0.7)
    ens = QuenchedEnsemble(spec, Box.from_shape(1), {(0,): 1})
    assert ens.log_partition() == pytest.approx(math.log(2 * math.cosh(0.7)), abs=1e-12)
    assert ens.gibbs_probability({(0,): 1}) == pytest.approx(
        math.exp(0.7) / (2 * math.cosh(0.7)), abs=1e-12
    )


def test_probabilities_normalize():
    spec = make_rfim(J=0.4, h=0.25)
    box = Box.from_shape(2, 2)
    rng = np.random.default_rng(7)
    eta = {s: int(rng.choice([-1, 1])) for s in box.sites()}
    ens = QuenchedEnsemble(spec, box, eta)
    total = 0.0
    for combo in product((-1, 1), repeat=4):
        total += ens.gibbs_probability(dict(zip(box.sites(), combo)))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_uniform_when_no_interactions():
    spec = make_rfim(J=0.0, h=0.0)
    box = Box.from_shape(3)
    ens = QuenchedEnsemble(spec, box, eta_on(box.sites()))
    for combo in product((-1, 1), repeat=3):
        assert ens.gibbs_probability(dict(zip(box.sites(), combo))) == pytest.approx(
            1 / 8, abs=1e-13
        )


def test_strong_bond_aligns():
    spec = make_rfim(J=5.0, h=0.0)
    box = Box.from_shape(2)
    ens = QuenchedEnsemble(spec, box, eta_on(box.sites()))
    p_same = ens.gibbs_probability({(0,): 1, (1,): 1}) + ens.gibbs_probability(
        {(0,): -1, (1,): -1}
    )
    assert p_same > 0.9999


def test_magnetization_vanishes_without_field():
    spec = make_rfim(J=0.6, h=0.0)
    box = Box.from_shape(3)
    ens = QuenchedEnsemble(spec, box, eta_on(box.sites()))
    assert ens.magnetization((1,)) == pytest.approx(0.0, abs=1e-13)


def test_pair_correlation_tanh():
    spec = make_rfim(J=0.9, h=0.0)
    box = Box.from_shape(2)
    ens = QuenchedEnsemble(spec, box, eta_on(box.sites()))
    assert ens.spin_product([(0,), (1,)]) == pytest.approx(math.tanh(0.9), abs=1e-12)


def test_log_partition_matches_brute_rfim():
    spec = make_rfim(J=0.5, h=0.3)
    box = Box.from_shape(2, 3)
    rng = np.random.default_rng(11)
    eta = {s: int(rng.choice([-1, 1])) for s in box.sites()}
    ens = QuenchedEnsemble(spec, box, eta)
    ref = oracles.brute_log_partition(
        box.sites(), lambda sig: oracles.rfim_energy(0.5, 0.3, box.sites(), eta)(sig)
    )
    assert ens.log_partition() == pytest.approx(ref, abs=1e-11)


def test_fixed_boundary_includes_collar_bonds():
    spec = make_rfim(J=0.5, h=0.3)
    box = Box.from_shape(2)
    sites = box.sites()
    collar = [(-1,), (2,)]
    eta = eta_on(list(sites) + collar)
    bc = BoundaryCondition.fixed(fill=1)
    ens = QuenchedEnsemble(spec, box, eta, bc)
    frozen = {s: 1 for s in collar}
    ref = oracles.brute_log_partition(
        sites,
        lambda sig: oracles.rfim_energy(0.5, 0.3, sites, eta, frozen=frozen)(sig),
    )
    assert ens.log_partition() == pytest.approx(ref, abs=1e-11)
    # free boundaries drop those bonds
    free = QuenchedEnsemble(spec, box, eta)
    ref_free = oracles.brute_log_partition(
        sites, lambda sig: oracles.rfim_energy(0.5, 0.3, sites, eta)(sig)
    )
    assert free.log_partition() == pytest.approx(ref_free, abs=1e-11)
    assert free.log_partition() != pytest.approx(ens.log_partition(), abs=1e-6)


def test_random_bond_matches_brute():
    spec = make_random_bond([-0.4, 0.4], d=2)
    box = Box.from_shape(2, 2)
    rng = np.random.default_rng(13)
    eta = {
        s: (float(rng.choice([-0.4, 0.4])), float(rng.choice([-0.4, 0.4])))
        for s in box.sites()
    }
    ens = QuenchedEnsemble(spec, box, eta)
    ref = oracles.brute_log_partition(
        box.sites(), lambda sig: oracles.random_bond_energy(box.sites(), eta)(sig)
    )
    assert ens.log_partition() == pytest.approx(ref, abs=1e-11)


def test_conditional_is_consistent():
    # Gibbs family consistency: conditioning the 3x3 measure on the outside
    # of a 2x1 patch reproduces the patch ensemble probabilities.
    spec = make_rfim(J=0.45, h=0.2)
    box = Box.from_shape(3, 3)
    rng = np.random.default_rng(17)
    eta = {s: int(rng.choice([-1, 1])) for s in box.sites()}
    ens = QuenchedEnsemble(spec, box, eta)
    sub = [(1, 1), (1, 2)]
    outside = [s for s in box.sites() if s not in sub]
    sigma_out = {s: int(rng.choice([-1, 1])) for s in outside}
    cond = ens.conditional(sub, sigma_out)

    def joint(patch):
        sigma = dict(sigma_out)
        sigma.update(patch)
        return ens.gibbs_probability(sigma)

    norm = sum(
        joint(dict(zip(sub, combo))) for combo in product((-1, 1), repeat=2)
    )
    for combo in product((-1, 1), repeat=2):
        patch = dict(zip(sub, combo))
        assert cond.gibbs_probability(patch) == pytest.approx(
            joint(patch) / norm, abs=1e-12
        )


def test_conditional_region_must_be_inside():
    spec = make_rfim(J=0.3, h=0.1)
    box = Box.from_shape(2, 2)
    ens = QuenchedEnsemble(spec, box, eta_on(box.sites()))
    with pytest.raises(ConfigError):
        ens.conditional([(5, 5)], {})


def test_non_numeric_spins_reject_magnetization():
    spec = make_custom(
        name="potts-ish",
        spin_values=("a", "b"),
        disorder_values=(0, 1),
        nu={0: 0.5, 1: 0.5},
        range=1,
        term=lambda A, sigma, eta: 0.0,
        shapes=lambda x: [SiteSet([x])],
    )
    ens = QuenchedEnsemble(spec, Box.from_shape(2), {(0,): 0, (1,): 0})
    with pytest.raises(UnsupportedObservableError):
        ens.magnetization((0,))


def test_empty_region_rejected():
    spec = make_rfim(J=0.3, h=0.1)
    with pytest.raises(ConfigError):
        QuenchedEnsemble(spec, [], {})


def test_missing_disorder_rejected():
    spec = make_rfim(J=0.3, h=0.1)
    box = Box.from_shape(2)
    with pytest.raises(ConfigError):
        QuenchedEnsemble(spec, box, {(0,): 1})  # (1,) left unassigned


def test_transfer_backend_agrees_inside_ensemble():
    spec = make_rfim(J=0.35, h=0.15)
    box = Box.from_shape(12)
    rng = np.random.default_rng(19)
    eta = {s: int(rng.choice([-1, 1])) for s in box.sites()}
    ens = QuenchedEnsemble(spec, box, eta)
    a = engine.log_partition_enumerate(ens.compile())
    b = engine.log_partition_transfer(ens.compile(), engine.plan_transfer(ens.compile()))
    assert a == pytest.approx(b, rel=1e-11)


def test_dilute_isolated_sites_decouple():
    # with eta = 0 everywhere no bond is active: logZ = n log 2
    spec = make_dilute(J=1.2, p=0.5)
    box = Box.from_shape(2, 3)
    ens = QuenchedEnsemble(spec, box, {s: 0 for s in box.sites()})
    assert ens.log_partition() == pytest.approx(6 * math.log(2), abs=1e-12)