"""Dispersion relation triples, domains, and derivative consistency."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavekit.dispersion import DispersionRelation, Kind
from wavekit.errors import CurvatureSingular, DomainError, InvalidInput


def test_relativistic_rest_values():
    rel = DispersionRelation.relativistic(1.0)
    assert rel.evaluate(0.0) == (1.0, 0.0, 1.0)


def test_nonrelativistic_values():
    rel = DispersionRelation.non_relativistic(2.0)
    assert rel.evaluate(2.0) == (1.0, 1.0, 0.5)


def test_lattice_values():
    rel = DispersionRelation.lattice(3.0, 1.0)
    e, v, c = rel.evaluate(0.0)
    assert e == pytest.approx(-1.0 / 3.0)
    assert v == 0.0
    assert c == pytest.approx(1.0 / 3.0)


def test_momentum_domains():
    assert not DispersionRelation.relativistic(1.0).momentum_domain().periodic
    dom = DispersionRelation.lattice(1.0, 1.0).momentum_domain()
    assert dom.periodic and dom.cut == pytest.approx(math.pi)
    dom_half = DispersionRelation.lattice(1.0, 0.5).momentum_domain()
    assert dom_half.cut == pytest.approx(2.0 * math.pi)


def test_lattice_domain_error():
    rel = DispersionRelation.lattice(3.0, 1.0)
    with pytest.raises(DomainError):
        rel.energy(4.0)


def test_massless_curvature_singular():
    rel = DispersionRelation.massless()
    with pytest.raises(CurvatureSingular):
        rel.curvature(0.0)
    assert rel.curvature(0.3) == 0.0


def test_constructor_validation():
    with pytest.raises(InvalidInput):
        DispersionRelation.relativistic(0.0)
    with pytest.raises(InvalidInput):
        DispersionRelation.lattice(1.0, -1.0)
    with pytest.raises(InvalidInput):
        DispersionRelation(Kind.MASSLESS, 1.0)


_RELS = [
    DispersionRelation.non_relativistic(3.0),
    DispersionRelation.lattice(3.0, 1.0),
    DispersionRelation.relativistic(1.0),
    DispersionRelation.massless(),
]


@given(st.floats(min_value=-3.0, max_value=3.0), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_finite_difference_consistency(p, rel_idx):
    rel = _RELS[rel_idx]
    if rel.kind is Kind.MASSLESS and abs(p) < 0.05:
        p = p + 0.1
    h = 1e-6 * max(1.0, abs(p))
    if rel.kind is Kind.MASSLESS and p * (p + h) <= 0:
        return  # stencil would straddle the kink
    de = (rel.energy(p + h) - rel.energy(p - h)) / (2 * h)
    dv = (rel.velocity(p + h) - rel.velocity(p - h)) / (2 * h)
    assert abs(de - rel.velocity(p)) <= 1e-6 * max(1.0, abs(rel.velocity(p)))
    assert abs(dv - rel.curvature(p)) <= 1e-5 * max(1.0, abs(rel.curvature(p)))


@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_relativistic_bounds(p):
    rel = DispersionRelation.relativistic(1.3)
    assert rel.energy(p) >= rel.mass
    assert abs(rel.velocity(p)) < 1.0


def test_relativistic_far_momenta():
    # p*p overflows past |p| ~ 1e154; E and v must not.
    rel = DispersionRelation.relativistic(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(rel.velocity(np.array([1e200, -1e200])), [1.0, -1.0])
        assert rel.energy(1e200) == 1e200


def test_lattice_curvature_identity():
    rel = DispersionRelation.lattice(3.0, 0.7)
    p = np.linspace(-math.pi / 0.7, math.pi / 0.7, 33)
    np.testing.assert_allclose(
        rel.curvature(p), -0.7**2 * rel.energy(p), rtol=0.0, atol=5e-16
    )


@given(st.floats(min_value=-20.0, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_massless_is_small_mass_limit(p):
    m = 1e-6
    rel = DispersionRelation.relativistic(m)
    massless = DispersionRelation.massless()
    assert abs(rel.energy(p) - massless.energy(p)) <= m
