import cmath
from math import comb

import numpy as np
import pytest

import ncdiff.forms as F
from ncdiff.forms import (BasisConditionError, BasisModeError, DifferentialBasis,
                          DifferentialForm, component_rank, delta, form_to_json,
                          grade, partial, partial_star, star, wedge)
from ncdiff.matrix_algebra import MatElement, projection_basis
from ncdiff.qlattice import QElement, element_to_json
from ncdiff.testing import random_form, random_matelement, random_qelement

from conftest import THETA


def torus_two_slot_basis(torus):
    U = QElement.generator(torus, 1)
    return DifferentialBasis([U, U * U], label="torus {U, U^2}")


def test_basis_validation_rejects_noncommuting(torus):
    U = QElement.generator(torus, 1)
    V = QElement.generator(torus, 2)
    with pytest.raises(BasisConditionError):
        DifferentialBasis([U, V])
    # two Hermitian matrices that share no eigenbasis
    sx = MatElement(np.array([[0, 1], [1, 0]], dtype=complex))
    sz = MatElement(np.diag([1.0, -1.0]))
    for mode in ("complex", "selfadjoint"):
        with pytest.raises(BasisConditionError, match="mutually commute"):
            DifferentialBasis([sx, sz], mode=mode)


def test_basis_validation_rejects_commuting_non_normal_pair():
    e12 = MatElement.unit(2, 0, 1)
    shifted = e12 + MatElement.identity(2)
    assert (e12 * shifted - shifted * e12).norm() == 0.0
    with pytest.raises(BasisConditionError, match="mutually commute"):
        DifferentialBasis([e12, shifted])


def test_basis_selfadjoint_mode_checks():
    DifferentialBasis(projection_basis(2), mode="selfadjoint")
    clockish = MatElement(np.diag([1.0, 1j]))
    with pytest.raises(BasisConditionError):
        DifferentialBasis([clockish], mode="selfadjoint")


def test_basis_condition_one_warns():
    p1 = MatElement(np.diag([1.0, 0.0]))
    with pytest.warns(UserWarning):
        DifferentialBasis([p1], mode="complex")


def test_delta_matrix_example():
    basis = DifferentialBasis(projection_basis(2), mode="selfadjoint")
    e12 = MatElement.unit(2, 0, 1)
    d = delta(DifferentialForm.from_element(basis, e12))
    assert set(d.terms) == {((0,), ()), ((1,), ())}
    assert (d.terms[((0,), ())] - e12).norm() == 0.0
    assert (d.terms[((1,), ())] + e12).norm() == 0.0


def test_delta_of_identity(torus, torus_basis):
    basis = DifferentialBasis(projection_basis(3), mode="selfadjoint")
    assert delta(DifferentialForm.from_element(basis, MatElement.identity(3))).norm() == 0.0
    assert delta(DifferentialForm.from_element(torus_basis, QElement.one(torus))).norm() == 0.0


def test_delta_torus_example(torus, torus_basis):
    V = QElement.generator(torus, 2)
    d = delta(DifferentialForm.from_element(torus_basis, V))
    cU = d.terms[((0,), ())]
    cUs = d.terms[((), (0,))]
    assert abs(cU.terms[(1, 1)] - (1 - cmath.exp(-1j * THETA))) < 1e-14
    assert abs(cUs.terms[(-1, 1)] - (1 - cmath.exp(1j * THETA))) < 1e-14


def test_partial_halves(torus, torus_basis, rng):
    V = QElement.generator(torus, 2)
    alpha = DifferentialForm.from_element(torus_basis, V)
    p = partial(alpha)
    assert set(p.terms) == {((0,), ())}
    assert partial(DifferentialForm.from_element(torus_basis, QElement.one(torus))).norm() == 0.0
    for _ in range(100):
        form = random_form(torus_basis, lambda r: random_qelement(torus, r), rng)
        total = partial(form) + partial_star(form)
        assert (total - delta(form)).norm() < 1e-12


def test_partial_requires_complex_mode():
    basis = DifferentialBasis(projection_basis(2), mode="selfadjoint")
    alpha = DifferentialForm.from_element(basis, MatElement.identity(2))
    with pytest.raises(BasisModeError):
        partial(alpha)
    with pytest.raises(BasisModeError):
        partial_star(alpha)
    with pytest.raises(BasisModeError):
        star(alpha)


def test_wedge_antisymmetry_and_units(torus):
    basis = torus_two_slot_basis(torus)
    U = QElement.generator(torus, 1)
    V = QElement.generator(torus, 2)
    one = DifferentialForm.from_element(basis, QElement.one(torus))
    a = DifferentialForm(basis, {((0,), ()): U})
    b = DifferentialForm(basis, {((1,), ()): V})
    # dU_1 ^ dU_1 = 0
    assert wedge(a, a).norm() == 0.0
    # 1 ^ alpha = alpha
    assert (wedge(one, a) - a).norm() == 0.0
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert (ab.terms[((0, 1), ())] - U * V).norm() < 1e-14
    assert (ba.terms[((0, 1), ())] + V * U).norm() < 1e-14
    # noncommutative coefficients: not each other's negatives for theta != 0
    assert (ab + ba).norm() > 0.1


def test_wedge_associativity(torus, rng):
    basis = torus_two_slot_basis(torus)
    for _ in range(50):
        a = random_form(basis, lambda r: random_qelement(torus, r), rng, max_terms=2)
        b = random_form(basis, lambda r: random_qelement(torus, r), rng, max_terms=2)
        c = random_form(basis, lambda r: random_qelement(torus, r), rng, max_terms=2)
        assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).norm() <= 1e-10


def test_star_examples(torus, torus_basis, rng):
    U = QElement.generator(torus, 1)
    a = DifferentialForm(torus_basis, {((0,), ()): U})
    s = star(a)
    assert set(s.terms) == {((), (0,))}
    assert (s.terms[((), (0,))] - U.adjoint()).norm() == 0.0
    one = DifferentialForm.from_element(torus_basis, QElement.one(torus))
    assert (star(one) - one).norm() == 0.0
    for _ in range(100):
        form = random_form(torus_basis, lambda r: random_qelement(torus, r), rng)
        assert (star(star(form)) - form).norm() < 1e-12


def test_star_maps_pq_to_qp(torus):
    basis = torus_two_slot_basis(torus)
    V = QElement.generator(torus, 2)
    alpha = DifferentialForm(basis, {((0, 1), (0,)): V})  # (2,1)
    s = star(alpha)
    assert set(s.degrees()) == {(1, 2)}


def test_grade(torus, torus_basis):
    V = QElement.generator(torus, 2)
    alpha = DifferentialForm(torus_basis, {((), ()): V, ((0,), (0,)): V})
    g = grade(alpha)
    assert set(g) == {(0, 0), (1, 1)}
    reassembled = g[(0, 0)] + g[(1, 1)]
    assert (reassembled - alpha).norm() == 0.0
    assert grade(DifferentialForm.zero(torus_basis)) == {}


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_component_rank_vandermonde(n):
    for r in range(2 * n + 1):
        total = sum(component_rank(n, p, r - p) for p in range(r + 1))
        assert total == comb(2 * n, r)
    # vanishing beyond the slot count
    assert component_rank(n, n + 1, 0) == 0
    assert component_rank(n, 0, n + 1) == 0


def test_delta_degree_shift(torus):
    basis = torus_two_slot_basis(torus)
    V = QElement.generator(torus, 2)
    alpha = DifferentialForm(basis, {((0,), (1,)): V})  # (1,1)
    degrees = delta(alpha).degrees()
    assert degrees <= {(2, 1), (1, 2)}
    beta = DifferentialForm(basis, {((0,), ()): V})
    assert wedge(alpha, beta).degrees() <= {(2, 1)}


def test_delta_squared_carriers(torus, torus_basis, heisenberg, heisenberg_basis, rng):
    for spec, basis in ((torus, torus_basis), (heisenberg, heisenberg_basis)):
        for _ in range(100):
            form = random_form(basis, lambda r: random_qelement(spec, r), rng)
            assert delta(delta(form)).norm() <= 1e-10
    mbasis = DifferentialBasis(projection_basis(4), mode="selfadjoint")
    for _ in range(100):
        form = random_form(mbasis, lambda r: random_matelement(4, r), rng)
        assert delta(delta(form)).norm() <= 1e-10


def test_partial_relations(torus, torus_basis, rng):
    for _ in range(100):
        form = random_form(torus_basis, lambda r: random_qelement(torus, r), rng)
        assert partial(partial(form)).norm() <= 1e-10
        assert partial_star(partial_star(form)).norm() <= 1e-10
        anti = partial(partial_star(form)) + partial_star(partial(form))
        assert anti.norm() <= 1e-10


def test_graded_leibniz(torus, rng):
    basis = torus_two_slot_basis(torus)
    for _ in range(100):
        alpha = random_form(basis, lambda r: random_qelement(torus, r), rng, max_terms=1)
        beta = random_form(basis, lambda r: random_qelement(torus, r), rng, max_terms=1)
        if not alpha.terms:
            continue
        r = alpha.total_degree()
        lhs = delta(wedge(alpha, beta))
        rhs = wedge(delta(alpha), beta) + wedge(alpha, delta(beta)).scale((-1) ** r)
        assert (lhs - rhs).norm() <= 1e-10


def _bubble_sort_covectors(I1, J1, I2, J2):
    """Oracle: sort the covector word with explicit sign-flipping swaps."""
    seq = [(0, i) for i in I1] + [(1, j) for j in J1] \
        + [(0, i) for i in I2] + [(1, j) for j in J2]
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    changed = True
    while changed:
        changed = False
        for t in range(len(seq) - 1):
            if seq[t] > seq[t + 1]:
                seq[t], seq[t + 1] = seq[t + 1], seq[t]
                sign = -sign
                changed = True
    return sign, (tuple(i for s, i in seq if s == 0),
                  tuple(j for s, j in seq if s == 1))


def test_merge_sign_against_bubble_sort(rng):
    n = 5
    for _ in range(3000):
        def pick():
            k = int(rng.integers(0, n + 1))
            return tuple(sorted(rng.choice(n, size=k, replace=False)))
        I1, J1, I2, J2 = pick(), pick(), pick(), pick()
        assert F._merge_indices(I1, J1, I2, J2) == \
            _bubble_sort_covectors(I1, J1, I2, J2)
        for j in range(n):
            assert F._merge_indices((j,), (), I1, J1) == \
                _bubble_sort_covectors((j,), (), I1, J1)
            assert F._merge_indices((), (j,), I1, J1) == \
                _bubble_sort_covectors((), (j,), I1, J1)


def test_form_json(torus, torus_basis):
    V = QElement.generator(torus, 2)
    alpha = DifferentialForm(torus_basis, {((0,), ()): V})
    d = form_to_json(alpha, element_to_json)
    assert set(d) == {"basis_ref", "terms"}
    assert d["terms"][0]["I"] == [1] and d["terms"][0]["J"] == []
