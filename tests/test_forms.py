import cmath
import itertools
import json
import warnings
from math import comb

import numpy as np
import pytest

import ncdiff.forms as F
from ncdiff.cohomology import _dolbeault_indices
from ncdiff.forms import (BasisConditionError, BasisModeError, DifferentialBasis,
                          DifferentialForm, delta, form_to_json,
                          grade, partial, partial_star, star, wedge)
from ncdiff.matrix_algebra import MatElement, projection_basis
from ncdiff.qlattice import QAlgebraSpec, QElement, element_to_json, torus_spec
from ncdiff.testing import (default_carriers, random_form, random_matelement,
                            random_qelement)

import oracles
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


def test_basis_validation_reads_scaled_elements_relative_to_their_size():
    torus = torus_spec(0.9)
    U, V = QElement.generator(torus, 1), QElement.generator(torus, 2)
    # at 1e-6 the commutator of U and V is far below the absolute EQ_TOLERANCE,
    # and such a basis would break delta^2 = 0
    for c in (1.0, 1e-4, 1e-6):
        for elements, prefactors in [([U.scale(c), V.scale(c)], None), ([U, V], [c, c])]:
            with pytest.raises(BasisConditionError, match="mutually commute"):
                DifferentialBasis(elements, prefactors=prefactors)
    # a commuting family passes at every size, scaled inside or by prefactors
    for c in (1e-6, 1.0, 1e200):
        DifferentialBasis([U.scale(c), (U * U).scale(c)])
        DifferentialBasis([U, U * U], prefactors=[c, c])


def test_basis_validation_rejects_a_slot_that_its_prefactor_prunes_to_zero():
    # c U has its one coefficient at or below PRUNE_EPSILON for c = 1e-13, so
    # c U is the zero element: a zero slot would pass the commuting check and
    # derive nothing, even for U and V, which do not commute
    torus = torus_spec(0.9)
    U, V = QElement.generator(torus, 1), QElement.generator(torus, 2)
    for elements in ([U, V], [U, U * U]):
        with pytest.raises(BasisConditionError, match="basis element 1 times its prefactor is zero"):
            DifferentialBasis(elements, prefactors=[1e-13, 1e-13])
        with pytest.raises(BasisConditionError, match="basis element 2 times its prefactor is zero"):
            DifferentialBasis(elements, prefactors=[1.0, 1e-13])
    with pytest.raises(BasisConditionError, match="mutually commute"):
        DifferentialBasis([U, V], prefactors=[1e-11, 1e-11])
    basis = DifferentialBasis([U, U * U], prefactors=[1e-11, 1e-11])
    assert delta(DifferentialForm.from_element(basis, U * U * V)).norm() > 0.0
    with pytest.raises(BasisConditionError, match="basis element 1 times its prefactor is zero"):
        DifferentialBasis([MatElement.identity(2)], prefactors=[0.0])
    DifferentialBasis([MatElement.zero(2)], mode="selfadjoint")  # given as zero, not pruned


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


def test_self_adjointness_is_read_relative_to_the_element_size():
    # |U - U^*| = 1e-11 for 1e-11 U is below the absolute EQ_TOLERANCE, yet
    # U is unitary and not self-adjoint at any size
    torus = torus_spec(0.9)
    U = QElement.generator(torus, 1)
    for c in (1e-11, 1e-4, 1.0):
        with pytest.raises(BasisConditionError, match="self-adjoint basis elements"):
            DifferentialBasis([U.scale(c)], mode="selfadjoint")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DifferentialBasis([U.scale(c)])
    # U + U^* and a projection are self-adjoint at every size
    for c in (1e-11, 1.0, 1e200):
        for u in ((U + U.adjoint()).scale(c), MatElement(np.diag([c, 0.0]))):
            DifferentialBasis([u], mode="selfadjoint")
            with pytest.warns(UserWarning, match="is self-adjoint"):
                DifferentialBasis([u])


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
        total = sum(len(_dolbeault_indices(n, p, r - p)) for p in range(r + 1))
        assert total == comb(2 * n, r)
    # vanishing beyond the slot count
    assert len(_dolbeault_indices(n, n + 1, 0)) == 0
    assert len(_dolbeault_indices(n, 0, n + 1)) == 0


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


def _complex_twin(basis):
    """The basis's elements in complex mode (self-adjoint ones warn there)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return DifferentialBasis(basis.elements, basis.prefactors, label=basis.label)


def test_delta_is_the_sum_of_its_halves():
    for label, basis, sample in default_carriers():
        rng = np.random.default_rng(17)
        twin = basis if basis.mode == "complex" else _complex_twin(basis)
        for _ in range(20):
            alpha = random_form(twin, lambda _: sample(), rng)
            halves = partial(alpha) + partial_star(alpha)
            assert (delta(alpha) - halves).norm() <= 1e-13, label
            if twin is not basis:
                # self-adjoint mode keeps the unstarred half only
                flat = DifferentialForm(basis, {(I, ()): a for (I, J), a in alpha.terms.items()
                                                if not J})
                want = partial(DifferentialForm(twin, flat.terms))
                assert set(delta(flat).terms) == set(want.terms), label
                assert (DifferentialForm(twin, delta(flat).terms) - want).norm() <= 1e-13


def _diagonal_unitaries(n):
    phases = np.arange(1, n + 1)
    return [MatElement(np.diag(np.exp(0.3j * (j + 1) * phases))) for j in range(n)]


def test_front_merge_table_is_the_merge_rule():
    for n, mode in itertools.product(range(1, 5), ("complex", "selfadjoint")):
        elements = _diagonal_unitaries(n) if mode == "complex" else \
            [MatElement.unit(n, j, j) for j in range(n)]
        basis = DifferentialBasis(elements, mode=mode)
        subsets = [c for k in range(n + 1) for c in itertools.combinations(range(n), k)]
        for I, J in itertools.product(subsets, subsets if mode == "complex" else [()]):
            rows = basis.front_merges(I, J)
            assert len(rows) == 2  # both families in either mode
            for row, starred in zip(rows, (False, True)):
                assert row == tuple(F._merge_indices((), (j,), I, J) if starred
                                    else F._merge_indices((j,), (), I, J)
                                    for j in range(n))
            assert basis.front_merges(I, J) is rows  # filled once


def test_bases_never_share_a_merge_table(torus):
    U = QElement.generator(torus, 1)
    first, second = (DifferentialBasis([U, U * U]) for _ in range(2))
    alpha = DifferentialForm(first, {((0,), ()): U})
    delta(alpha)
    assert first._front and not second._front
    assert first._front is not second._front


def test_form_json(torus, torus_basis):
    V = QElement.generator(torus, 2)
    alpha = DifferentialForm(torus_basis, {((0,), ()): V})
    d = form_to_json(alpha, element_to_json)
    assert set(d) == {"basis_ref", "terms"}
    assert d["terms"][0]["I"] == [1] and d["terms"][0]["J"] == []


def test_covector_indices_are_held_as_python_ints():
    # random_form draws its slots with rng.choice, as numpy int64
    label, basis, sample = default_carriers()[0]
    assert label == "matrix M_4"
    rng = np.random.default_rng(2)
    alpha = random_form(basis, lambda _: sample(), rng, max_terms=6)
    d = delta(alpha)
    for form in (alpha, d):
        assert any(key != ((), ()) for key in form.terms)
        assert all(type(s) is int for I, J in form.terms for s in I + J)
        json.dumps(form_to_json(form, lambda a: a.mat.real.tolist()))
    # indices of any integer type name the same covectors
    a = sample()
    given = DifferentialForm(basis, {((np.int64(0), np.int32(2)), ()): a})
    assert list(given.terms) == [((0, 2), ())]
    assert all(type(s) is int for s in next(iter(given.terms))[0])


@pytest.mark.parametrize("index", [(1.0,), (np.float64(1),), (0, 1.5), ("1",)])
def test_a_non_integral_covector_index_is_rejected(torus_basis, index):
    U = torus_basis.elements[0]
    with pytest.raises(ValueError, match="bad covector index"):
        DifferentialForm(torus_basis, {(index, ()): U})
    with pytest.raises(ValueError, match="bad covector index"):
        DifferentialForm(torus_basis, {((), index): U})


def _battery_forms():
    """The forms that the selftest's delta^2, Leibniz and carre du champ
    inputs give under delta, wedge, star and differences."""
    out = []
    for _, alphas in oracles.delta_inputs(4):
        for alpha in alphas:
            out += [delta(alpha), delta(delta(alpha)), alpha - alpha]
    for _, pairs in oracles.leibniz_inputs(4):
        for alpha, beta in pairs:
            r = alpha.total_degree() if alpha.terms else 0
            lhs = delta(wedge(alpha, beta))
            rhs = wedge(delta(alpha), beta) + wedge(alpha, delta(beta)).scale((-1) ** r)
            out += [lhs, rhs, lhs - rhs, star(lhs)]
    basis, pairs = oracles.carre_inputs()
    for a, c in pairs:
        da, dc = (delta(DifferentialForm.from_element(basis, x)) for x in (a, c))
        out += [wedge(da, dc), da - da, da + dc, -star(dc)]
    return out


def test_forms_drop_what_the_full_norm_drops(monkeypatch):
    # a coefficient is dropped when its norm is 0, decided without the norm
    # where the carrier allows (forms._vanishes); the dropped keys are those
    # of the full norm on every form the selftest's inputs give
    got = [list(form.terms) for form in _battery_forms()]
    zeros = []
    monkeypatch.setattr(F, "_vanishes", lambda a: zeros.append(a.norm() == 0.0) or zeros[-1])
    assert got == [list(form.terms) for form in _battery_forms()]
    assert any(zeros) and not all(zeros)


def test_delta_drops_zero_brackets_that_their_carrier_keeps():
    # a bracket summed in a raw accumulator is dropped exactly when its norm
    # is 0, as every other coefficient is, also where the carrier keeps zeros
    spec = QAlgebraSpec(torus_spec(THETA).theta, prune_epsilon=-1.0)
    U, V = QElement.generator(spec, 1), QElement.generator(spec, 2)
    basis = DifferentialBasis([U])
    assert delta(DifferentialForm.from_element(basis, U)).terms == {}
    for a in (U, V, U + V, U - U, V - V + U):
        alpha = DifferentialForm.from_element(basis, a)
        for derive, families in ((delta, (False, True)), (partial, (False,)),
                                 (partial_star, (True,))):
            got = derive(alpha)
            want = oracles.derive_per_bracket(alpha, families)
            assert list(got.terms) == list(want.terms)
            assert all(c.terms == want.terms[k].terms for k, c in got.terms.items())


def test_forms_drop_zero_coefficients_that_their_carrier_keeps():
    # a negative prune_epsilon keeps zero coefficients in a q-lattice
    # element, so its norm decides; a nan coefficient is never dropped
    spec = QAlgebraSpec(torus_spec(THETA).theta, prune_epsilon=-1.0)
    U, V = QElement.generator(spec, 1), QElement.generator(spec, 2)
    zero = U - U
    assert zero.terms == {(1, 0): 0j} and zero.norm() == 0.0
    basis = DifferentialBasis([U])
    form = DifferentialForm(basis, {((), ()): zero, ((0,), ()): V})
    assert list(form.terms) == [((0,), ())]
    assert (form - form).terms == {} and (form.scale(0.0)).terms == {}
    assert wedge(form, DifferentialForm.from_element(basis, zero)).terms == {}
    nan = QElement(spec, {(0, 1): complex("nan")})
    assert list(DifferentialForm(basis, {((0,), ()): nan}).terms) == [((0,), ())]
    # a matrix coefficient vanishes exactly when no entry is nonzero
    mbasis = DifferentialBasis(projection_basis(2), mode="selfadjoint")
    for m, kept in ((np.zeros((2, 2)), False), (np.diag([-0.0, 5e-324j]), True)):
        f = DifferentialForm(mbasis, {((0,), ()): MatElement(m)})
        assert bool(f.terms) is kept and bool((f + f).terms) is kept
