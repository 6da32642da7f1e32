"""The carrier protocol shared by every element type the calculus runs on."""

import operator

import numpy as np
import pytest

import ncdiff
from ncdiff import carrier, matrix_algebra, qlattice
from ncdiff.carrier import EQ_TOLERANCE, PRUNE_EPSILON
from ncdiff.forms import DifferentialBasis
from ncdiff.qlattice import QElement, SpecMismatchError, torus_spec
from ncdiff.testing import (random_form, random_graph_element, random_matelement,
                            random_qelement, star_tree)

from conftest import THETA


# Each factory returns (a, b, foreign, error): two nonzero elements over one
# parent, one over another parent, and the error that mixing them raises.

def _q(rng):
    spec = torus_spec(THETA)
    other = torus_spec(THETA / 2)
    return (random_qelement(spec, rng), random_qelement(spec, rng),
            random_qelement(other, rng), SpecMismatchError)


def _graph(rng):
    g = star_tree(4)
    return (random_graph_element(g, rng), random_graph_element(g, rng),
            random_graph_element(star_tree(4), rng), ValueError)


def _mat(rng):
    return (random_matelement(3, rng), random_matelement(3, rng),
            random_matelement(2, rng), ValueError)


def _form(rng):
    spec = torus_spec(THETA)
    U = QElement.generator(spec, 1)
    basis = DifferentialBasis([U], label="{U}")
    other = DifferentialBasis([U], label="{U} again")

    def coeff(r):
        return random_qelement(spec, r)

    return (random_form(basis, coeff, rng), random_form(basis, coeff, rng),
            random_form(other, coeff, rng), ValueError)


CARRIERS = pytest.mark.parametrize("make", [_q, _graph, _mat, _form],
                                   ids=["qlattice", "graph", "matrix", "form"])
TERM_CARRIERS = pytest.mark.parametrize("make", [_q, _graph], ids=["qlattice", "graph"])


@CARRIERS
def test_linear_structure(make, rng):
    a, b, _, _ = make(rng)
    assert not a.is_zero() and not b.is_zero()
    assert (a + b - b).equal_within(a)
    assert not (a + b).equal_within(a)
    assert (-a).equal_within((-1) * a, tol=0.0)
    assert (-a).equal_within(a.scale(-1), tol=0.0)
    assert (2 * a).equal_within(a.scale(2), tol=0.0)


@CARRIERS
def test_default_tolerance(make, rng):
    a, _, _, _ = make(rng)
    below = a.scale(0.5 * EQ_TOLERANCE / a.norm())
    above = a.scale(2.0 * EQ_TOLERANCE / a.norm())
    assert below.is_zero() and not above.is_zero()
    assert (a + below).equal_within(a)
    assert not (a + above).equal_within(a)


@CARRIERS
def test_mixing_parents_raises(make, rng):
    a, _, foreign, error = make(rng)
    for op in (operator.add, operator.sub):
        with pytest.raises(error):
            op(a, foreign)
    with pytest.raises(error):
        a.equal_within(foreign)


@TERM_CARRIERS
def test_terms_prune_at_prune_epsilon(make, rng):
    a, _, _, _ = make(rng)
    key = next(iter(a.terms))
    unit = a._like({key: 1.0})
    assert unit.scale(PRUNE_EPSILON).terms == {}
    assert unit.scale(2 * PRUNE_EPSILON).terms == {key: 2 * PRUNE_EPSILON}
    assert (unit.scale(4 * PRUNE_EPSILON) + unit.scale(-3.5 * PRUNE_EPSILON)).terms == {}
    assert (a - a).terms == {} and (-a + a).terms == {}


@TERM_CARRIERS
def test_overflowing_moduli_raise_on_both_holdings(make, rng):
    # 1.5e308 (1 + i) is finite, but its modulus overflows: the loops raise
    # from abs, and the routes over held arrays must raise as they do
    a, _, _, _ = make(rng)
    key = next(iter(a.terms))
    big = 1.5e308 + 1.5e308j
    for c, factor in ((1.0, big), (1e308 + 1e308j, 1.5)):
        x = a._like({key: c})
        keys, coeffs = x._arrays()
        for y in (x, x._held(keys, coeffs)):
            with pytest.raises(OverflowError):
                y.scale(factor)
            assert y.norm() == abs(c)
            assert (y + y).norm() == abs(2 * c)  # inf parts: an inf modulus, no error
        with pytest.raises(OverflowError):
            x._like({key: big})
        with pytest.raises(OverflowError):
            x._held(keys, np.array([big]))


def test_mixing_q_and_graph_elements_is_a_type_error(rng):
    a = _q(rng)[0]
    with pytest.raises(TypeError):
        a + _graph(rng)[0]


def test_one_commutator():
    assert ncdiff.commutator is carrier.commutator
    assert not hasattr(qlattice, "commutator")
    assert not hasattr(matrix_algebra, "mat_commutator")
