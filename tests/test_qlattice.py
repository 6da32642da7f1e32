import cmath
import itertools
import math
import pickle
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ncdiff import qlattice
from ncdiff.carrier import add_terms, commutator
from ncdiff.qlattice import (QAlgebraSpec, QElement, SpecMismatchError,
                             _array_product, clock_shift_rep, element_to_json,
                             heisenberg_spec, inner, normal_order, spec_from_json,
                             spec_to_json, tau, theta_hat, torus_spec, torus_spec_2n,
                             weyl_lattice_spec)
from ncdiff.testing import random_qelement

from conftest import MU, NU, THETA
from oracles import (assert_close_terms, box_for, dict_only, element_from_json, held,
                     loop_product, monomial_ad_loop, pair_product, q_element)
import test_carrier as contract
from test_carrier import (HEISENBERG, Q_CASES, TORUS, QCase, array_product_matches_loop,
                          contract_test)


def test_spec_validation():
    with pytest.raises(ValueError):
        QAlgebraSpec([[0.0, 1.0], [1.0, 0.0]])  # not skew
    with pytest.raises(ValueError):
        QAlgebraSpec(np.zeros((2, 3)))
    spec = torus_spec(THETA)
    assert spec.generator_count == 2
    assert spec.theta[1, 0] == THETA


def test_spec_skew_symmetry_is_tight_and_one_angle_is_stored():
    from ncdiff.cohomology import c00_membership
    theta = 2 * math.pi * 2 / 7
    # numpy's default rtol of 1e-5 once let this matrix through
    with pytest.raises(ValueError, match="skew-symmetric"):
        QAlgebraSpec([[0.0, -theta], [theta * (1 + 5e-6), 0.0]])
    with pytest.raises(ValueError, match="skew-symmetric"):
        QAlgebraSpec([[0.0, -theta], [theta + 1e-9, 0.0]])
    with pytest.raises(ValueError, match="skew-symmetric"):
        QAlgebraSpec([[0.0, 1e308], [1e308, 0.0]])  # the sum overflows
    # one ulp apart: accepted, and stored from the upper triangle
    spec = QAlgebraSpec([[1e-13, -theta], [np.nextafter(theta, 4.0), 0.0]])
    assert spec.theta.tolist() == [[0.0, -theta], [theta, 0.0]]
    assert spec.same_as(torus_spec(theta))
    U, V = QElement.generator(spec, 1), QElement.generator(spec, 2)
    assert len(clock_shift_rep(spec, U).mat) == 7
    V7 = QElement(spec, {(0, 7): 1.0})
    assert c00_membership(V7) == (True, [])
    assert (U * V7 - V7 * U).norm() < 1e-12
    big = QAlgebraSpec([[0.0, 1e6], [-1e6 * (1 + 5e-13), 0.0]])
    assert big.theta[1, 0] == -1e6


def test_normal_order_torus(torus):
    # V.U picks up exp(-i theta) relative to the ordered monomial
    out = normal_order(torus, [(2, 1), (1, 1)])
    assert set(out.terms) == {(1, 1)}
    assert abs(out.terms[(1, 1)] - cmath.exp(-1j * THETA)) < 1e-14


def test_normal_order_cancellation(torus):
    out = normal_order(torus, [(1, 1), (1, -1)])
    assert set(out.terms) == {(0, 0)}
    assert out.terms[(0, 0)] == 1.0


def test_normal_order_heisenberg(heisenberg):
    # W.U = exp(4 pi i mu) U W
    out = normal_order(heisenberg, [(3, 1), (1, 1)])
    assert abs(out.terms[(1, 0, 1)] - cmath.exp(4j * math.pi * MU)) < 1e-14


def test_normal_order_index_error(torus):
    with pytest.raises(ValueError):
        normal_order(torus, [(3, 1)])


@pytest.mark.parametrize("word, letter", [
    ([(1, 2.5)], "(1, 2.5)"), ([(1, 2.0)], "(1, 2.0)"), ([(2, 1), (1, 0.0)], "(1, 0.0)"),
    ([(1.0, 1)], "(1.0, 1)"), ([(1, Fraction(1))], "(1, Fraction(1, 1))"), ([("1", 1)], "('1', 1)"),
], ids=["fractional-power", "float-power", "float-zero-power", "float-index", "fraction-power",
        "string-index"])
def test_normal_order_rejects_a_letter_that_is_not_a_pair_of_integers(torus, word, letter):
    # a power is checked as QElement checks exponents, never truncated, and an
    # index is checked before it is used; numpy integers are integers
    message = f"^letter {re.escape(letter)} needs integer index and power$"
    with pytest.raises(ValueError, match=message):
        normal_order(torus, word)
    if isinstance(word[-1][0], float):
        with pytest.raises(ValueError, match=re.escape(letter)):
            QElement.generator(torus, word[-1][0])
    got = normal_order(torus, [(np.int64(2), np.int32(3)), (np.uint8(1), np.int16(-2))])
    assert got.terms == normal_order(torus, [(2, 3), (1, -2)]).terms
    assert all(type(k) is int for e in got.terms for k in e)
    assert QElement.generator(torus, np.int64(2)).terms == QElement.generator(torus, 2).terms


def _swap_oracle(spec, word):
    """Bubble-sort the letter list with single relation applications."""
    letters = [(i - 1, p) for i, p in word]
    angle = 0.0
    changed = True
    while changed:
        changed = False
        for t in range(len(letters) - 1):
            (a, ea), (b, eb) = letters[t], letters[t + 1]
            if a > b:
                angle += spec.theta[b, a] * ea * eb
                letters[t], letters[t + 1] = letters[t + 1], letters[t]
                changed = True
    exps = [0] * spec.generator_count
    for i, p in letters:
        exps[i] += p
    return tuple(exps), cmath.exp(1j * angle)


@pytest.mark.parametrize("length", [2, 3, 4, 5])
def test_normal_order_confluence(torus, length):
    # all permutations of a fixed letter multiset agree with the
    # single-swap oracle, phases included
    base = [(1, 1), (2, 1), (1, -1), (2, -1), (2, 1)][:length]
    for perm in itertools.permutations(base):
        got = normal_order(torus, perm)
        exps, phase = _swap_oracle(torus, perm)
        assert set(got.terms) == {exps}
        assert abs(got.terms[exps] - phase) < 1e-13


def test_normal_order_confluence_three_generators(heisenberg):
    base = [(1, 1), (3, 1), (2, -1), (3, -1)]
    for perm in itertools.permutations(base):
        got = normal_order(heisenberg, perm)
        exps, phase = _swap_oracle(heisenberg, perm)
        assert set(got.terms) == {exps}
        assert abs(got.terms[exps] - phase) < 1e-13


def test_mul_examples(torus):
    U = QElement.generator(torus, 1)
    V = QElement.generator(torus, 2)
    uv = U * V
    assert uv.terms == {(1, 1): 1.0 + 0j}
    vu = V * U
    assert abs(vu.terms[(1, 1)] - cmath.exp(-1j * THETA)) < 1e-14


def test_adjoint_examples(torus, rng):
    U = QElement.generator(torus, 1)
    a = U.scale(1j).adjoint()
    assert set(a.terms) == {(-1, 0)}
    assert abs(a.terms[(-1, 0)] + 1j) < 1e-15
    for _ in range(100):
        x = random_qelement(torus, rng)
        assert (x.adjoint().adjoint() - x).norm() < 1e-12


def test_adjoint_antihomomorphism(torus, heisenberg, rng):
    for spec in (torus, heisenberg):
        for _ in range(200):
            a = random_qelement(spec, rng)
            b = random_qelement(spec, rng)
            assert ((a * b).adjoint() - b.adjoint() * a.adjoint()).norm() <= 1e-12


def test_associativity(torus, heisenberg, rng):
    weyl = weyl_lattice_spec(0.3)
    for spec in (torus, heisenberg, weyl):
        for _ in range(200):
            a = random_qelement(spec, rng, max_exp=2, n_terms=2)
            b = random_qelement(spec, rng, max_exp=2, n_terms=2)
            c = random_qelement(spec, rng, max_exp=2, n_terms=2)
            assert ((a * b) * c - a * (b * c)).norm() <= 1e-12


def test_unitarity_exact(torus, heisenberg):
    for spec in (torus, heisenberg):
        one = QElement.one(spec)
        for j in range(1, spec.generator_count + 1):
            Uj = QElement.generator(spec, j)
            assert (Uj * Uj.adjoint() - one).norm() == 0.0
            assert (Uj.adjoint() * Uj - one).norm() == 0.0


def test_commutator_identity_grid(torus):
    U = QElement.generator(torus, 1)
    for k in range(-6, 7):
        for l in range(-6, 7):
            got = commutator(U, QElement.monomial(torus, (k, l)))
            expect = QElement(torus, {(k + 1, l): 1 - cmath.exp(-1j * l * THETA)})
            assert (got - expect).norm() < 1e-12


def test_commutator_same_generator(torus):
    U = QElement.generator(torus, 1)
    u5 = QElement.monomial(torus, (5, 0))
    assert commutator(U, u5).norm() == 0.0


def test_commutator_heisenberg(heisenberg):
    # [W, U^m V^n] = (e^{4 pi i (m mu + n nu)} - 1) U^m V^n W
    W = QElement.generator(heisenberg, 3)
    for m, n in [(1, 0), (0, 1), (2, 3), (-1, 2)]:
        got = commutator(W, QElement.monomial(heisenberg, (m, n, 0)))
        factor = cmath.exp(4j * math.pi * (m * MU + n * NU)) - 1
        expect = QElement(heisenberg, {(m, n, 1): factor})
        assert (got - expect).norm() < 1e-13


def test_spec_mismatch():
    a = QElement.generator(torus_spec(0.5), 1)
    b = QElement.generator(torus_spec(0.6), 1)
    with pytest.raises(SpecMismatchError):
        a * b


def test_theta_hat(torus, rng):
    U = QElement.generator(torus, 1)
    a = random_qelement(torus, rng)
    assert (theta_hat(0.0, 0.0, a) - a).norm() == 0.0
    tu = theta_hat(0.4, 0.9, U)
    assert abs(tu.terms[(1, 0)] - cmath.exp(-1j * 0.4)) < 1e-15
    # group law and multiplicativity
    b = random_qelement(torus, rng)
    lhs = theta_hat(0.2, -0.3, theta_hat(0.5, 0.1, a))
    rhs = theta_hat(0.7, -0.2, a)
    assert (lhs - rhs).norm() < 1e-12
    assert (theta_hat(0.3, 0.6, a * b)
            - theta_hat(0.3, 0.6, a) * theta_hat(0.3, 0.6, b)).norm() < 1e-12


def test_theta_hat_wrong_arity(heisenberg):
    with pytest.raises(ValueError):
        theta_hat(0.1, 0.2, QElement.one(heisenberg))


def test_finite_difference_identity(torus, rng):
    # [U, a] = U (a - theta_hat_{0, theta}(a)), the derived subscript order
    U = QElement.generator(torus, 1)
    for _ in range(50):
        a = random_qelement(torus, rng)
        lhs = commutator(U, a)
        rhs = U * (a - theta_hat(0.0, THETA, a))
        assert (lhs - rhs).norm() < 1e-12
        lhs_star = commutator(U.adjoint(), a)
        rhs_star = U.adjoint() * (a - theta_hat(0.0, -THETA, a))
        assert (lhs_star - rhs_star).norm() < 1e-12


def test_finite_difference_identity_general_basis(torus, rng):
    # the finite-difference reading survives a composite basis U^k1 V^k2:
    # [x, a] = x (a - theta_hat_{-k2 theta, k1 theta}(a))
    for k1, k2 in [(1, 0), (0, 1), (2, -1), (1, 3)]:
        x = QElement.monomial(torus, (k1, k2))
        for _ in range(20):
            a = random_qelement(torus, rng)
            lhs = commutator(x, a)
            rhs = x * (a - theta_hat(-k2 * THETA, k1 * THETA, a))
            assert (lhs - rhs).norm() < 1e-12


def test_tau_and_inner(torus, heisenberg, rng):
    assert tau(QElement.one(torus)) == 1.0
    for m, n in [(1, 0), (0, 2), (-3, 4)]:
        assert tau(QElement.monomial(torus, (m, n))) == 0.0
    for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3)]:
        x = QElement.monomial(heisenberg, e)
        assert inner(x, x) == 1.0
        y = QElement.monomial(heisenberg, (e[0] + 1, e[1], e[2]))
        assert inner(x, y) == 0.0
    # tracial: tau(ab) = tau(ba)
    for _ in range(100):
        a = random_qelement(torus, rng)
        b = random_qelement(torus, rng)
        assert abs(tau(a * b) - tau(b * a)) < 1e-12


def test_clock_shift_q2():
    spec = torus_spec(math.pi)
    iu = clock_shift_rep(spec, QElement.generator(spec, 1))
    iv = clock_shift_rep(spec, QElement.generator(spec, 2))
    assert np.allclose(iu.mat, np.diag([1.0, -1.0]))
    assert np.allclose(iv.mat, np.array([[0, 1], [1, 0]]))
    uv = clock_shift_rep(spec, QElement.generator(spec, 1) * QElement.generator(spec, 2))
    vu = clock_shift_rep(spec, QElement.generator(spec, 2) * QElement.generator(spec, 1))
    assert np.allclose(uv.mat, -vu.mat)


def test_clock_shift_identity_and_hom(rng):
    spec = torus_spec(2 * math.pi * 3 / 7)
    ident = clock_shift_rep(spec, QElement.one(spec))
    assert np.allclose(ident.mat, np.eye(7))
    for _ in range(100):
        a = random_qelement(spec, rng)
        b = random_qelement(spec, rng)
        lhs = clock_shift_rep(spec, a * b)
        rhs = clock_shift_rep(spec, a) * clock_shift_rep(spec, b)
        assert (lhs - rhs).norm() <= 1e-10


def test_clock_shift_rejects_irrational():
    spec = torus_spec(1.0)  # 1/(2 pi) has no small-denominator approximation
    with pytest.raises(ValueError):
        clock_shift_rep(spec, QElement.one(spec), tol=1e-12, max_denominator=50)


def test_clock_shift_rejects_an_element_of_another_presentation(heisenberg):
    spec = torus_spec(2 * math.pi / 3)
    with pytest.raises(SpecMismatchError):
        clock_shift_rep(spec, QElement.generator(torus_spec(2 * math.pi / 5), 1))
    with pytest.raises(ValueError, match="two-generator presentation"):
        clock_shift_rep(spec, QElement.generator(heisenberg, 1))


def _commutation_null_dim(M):
    n = M.shape[0]
    L = np.kron(M, np.eye(n)) - np.kron(np.eye(n), M.T)
    s = np.linalg.svd(L, compute_uv=False)
    cut = max(L.shape) * np.finfo(float).eps * s[0]
    return int((s <= cut).sum())


def test_fuglede_putnam_on_clock_oracle():
    # commuting with the clock matrix and with its adjoint cut out the same
    # null space; compare dimensions of the two commutation maps
    spec = torus_spec(2 * math.pi * 3 / 7)
    C = clock_shift_rep(spec, QElement.generator(spec, 1)).mat
    assert _commutation_null_dim(C) == 7
    assert _commutation_null_dim(C.conj().T) == 7


def test_weyl_lattice_relation():
    hbar, step = 0.25, 0.5
    spec = weyl_lattice_spec(hbar, pairs=1, step=step)
    A = QElement.generator(spec, 1)
    B = QElement.generator(spec, 2)
    ab = A * B
    ba = B * A
    # A B = exp(i hbar step^2) B A
    assert abs(ab.terms[(1, 1)] - cmath.exp(1j * hbar * step * step)
               * ba.terms[(1, 1)]) < 1e-15


def test_torus_2n_blocks():
    spec = torus_spec_2n([0.3, 0.5])
    # pair generators q-commute, cross pairs commute
    U1, U2 = QElement.generator(spec, 1), QElement.generator(spec, 2)
    U3, U4 = QElement.generator(spec, 3), QElement.generator(spec, 4)
    assert abs((U1 * U2).terms[(1, 1, 0, 0)]
               - cmath.exp(1j * 0.3) * (U2 * U1).terms[(1, 1, 0, 0)]) < 1e-15
    assert commutator(U1, U3).norm() == 0.0
    assert abs((U3 * U4).terms[(0, 0, 1, 1)]
               - cmath.exp(1j * 0.5) * (U4 * U3).terms[(0, 0, 1, 1)]) < 1e-15


def test_serialization_roundtrip(torus, rng):
    d = spec_to_json(torus)
    assert set(d) >= {"generators", "theta_matrix", "label"}
    spec2 = spec_from_json(d)
    assert spec2.same_as(torus)
    a = random_qelement(torus, rng)
    items = element_to_json(a)
    b = element_from_json(spec2, items)
    assert sorted(a.terms) == sorted(b.terms)
    assert all(abs(a.terms[e] - b.terms[e]) < 1e-15 for e in a.terms)


@pytest.mark.parametrize("mono", [(0.5, 1), (2.0, 1), (np.float64(1), 0), ("1", 0), (1, None)])
def test_a_non_integral_exponent_is_rejected(mono):
    # int() would truncate 0.5 to 0; every entry point names the monomial
    spec = torus_spec(0.7)
    with pytest.raises(ValueError, match=r"monomial .* needs integer exponents"):
        QElement(spec, {mono: 1.0})
    with pytest.raises(ValueError, match=r"monomial .* needs integer exponents"):
        element_from_json(spec, [{"exponents": list(mono), "re": 1.0, "im": 0.0}])
    with pytest.raises(ValueError, match="needs integer exponents"):  # before the arity
        QElement(spec, {mono + (0,): 1.0})


def test_integer_exponents_of_any_integer_type_are_python_ints():
    spec = torus_spec(0.7)
    for mono in ((np.int64(2), True), (np.int32(2), 1), (2, np.uint8(1))):
        a = QElement(spec, {mono: 1.0})
        b = element_from_json(spec, [{"exponents": list(mono), "re": 1.0, "im": 0.0}])
        assert a.terms == b.terms == {(2, 1): 1 + 0j}
        assert all(type(x) is int for x in next(iter(a.terms)) + next(iter(b.terms)))
    with pytest.raises(ValueError, match=r"monomial \(2, 1, 0\) has wrong arity for 2"):
        QElement(spec, {(2, 1, 0): 1.0})


def test_pruning():
    spec = torus_spec(0.1)
    a = QElement(spec, {(1, 0): 1e-15, (0, 1): 1.0})
    assert set(a.terms) == {(0, 1)}


# -- the array route of the product -------------------------------------------

NO_ANGLES = QAlgebraSpec(np.zeros((3, 3)), label="commutative")


@pytest.mark.parametrize("spec, max_exp, sizes", [
    (torus_spec(THETA), 6, [(1, 1), (7, 7), (16, 16), (16, 17), (60, 60)]),
    (heisenberg_spec(MU, NU), 4, [(1, 1), (16, 17), (300, 300)]),
    (torus_spec_2n([0.3, 1.1]), 3, [(16, 17), (120, 150)]),
    (NO_ANGLES, 4, [(16, 17), (200, 100)]),
])
def test_array_product_matches_loop(spec, max_exp, sizes, rng):
    contract.products_match_the_loop(QCase(spec.label, spec, max_exp), sizes, rng)


test_array_product_prunes_exact_cancellations = contract_test(
    contract.product_prunes_exact_cancellations, TORUS, prune_epsilon=[1e-12, 0.0, -1.0])


def test_array_product_keeps_nan(heisenberg, rng):
    contract.product_keeps_nan(HEISENBERG, *(q_element(heisenberg, rng, 3, 20) for _ in range(2)))


def test_array_product_empty_operand(heisenberg, rng):
    contract.product_of_empty_operand(HEISENBERG, q_element(heisenberg, rng, 3, 40))


@pytest.mark.parametrize("spec, max_exp", [
    (torus_spec(THETA), 10 ** 6),            # codes fit int64: sorted codes
    (heisenberg_spec(MU, NU), 10 ** 5),
    (torus_spec_2n([0.3, 1.1]), 10 ** 3),
    (heisenberg_spec(MU, NU), 10 ** 6),      # box beyond int64: the pair loop
    (torus_spec_2n([0.3, 1.1]), 10 ** 6),
    (torus_spec(THETA), 2 ** 63 - 1),        # exponents beyond int64 sums: the pair loop
])
def test_array_product_wide_boxes(spec, max_exp, rng):
    a, b = q_element(spec, rng, max_exp, 40), q_element(spec, rng, max_exp, 30)
    array_product_matches_loop(QCase, a, b)
    # terms that merge in a wide box: a progression along the diagonal
    a = QElement(spec, {(k * max_exp,) * spec.generator_count: 1.0 + 0.5j * k
                        for k in range(-3, 4)})
    assert len(array_product_matches_loop(QCase, a, a).terms) == 13


def test_array_product_never_allocates_the_box():
    # 100 x 100 pairs in a box of 1201^2 codes: dense bins would take ~24 MB
    spec = torus_spec(THETA)
    rng = np.random.default_rng(5)
    a, b = q_element(spec, rng, 300, 100), q_element(spec, rng, 300, 100)
    tracemalloc.start()
    try:
        _array_product(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_small_products_stay_on_the_loop(torus, rng, monkeypatch):
    U, V = QElement.generator(torus, 1), QElement.generator(torus, 2)
    contract.small_products_stay_on_the_loop(
        TORUS, monkeypatch, U, V, {(1, 1)}, *(q_element(torus, rng, 6, n) for n in (16, 16, 17)))


# -- the phase table of products above one chunk ------------------------------

def _table_and_chunk_products(a, b):
    """``_array_product(a, b)`` as it runs, with the tables it built (None
    where the builder declined), and again with the builder declining, so
    that every chunk calls ``np.exp`` on its own angles."""
    built = []
    build = qlattice._phase_table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlattice, "_phase_table", lambda *args: built.append(build(*args)) or built[-1])
        got = _array_product(a, b)
        mp.setattr(qlattice, "_phase_table", lambda *args: None)
        want = _array_product(a, b)
    return got, want, built


def _assert_same_bytes(got, want):
    (E, c), (F, d) = got.keyed(), want.keyed()
    assert E.dtype == F.dtype and np.array_equal(E, F)
    assert c.dtype == d.dtype and c.tobytes() == d.tobytes()


@pytest.mark.parametrize("spec, max_exp, sizes", [
    (torus_spec(THETA), 20, [(65, 64), (300, 300)]),
    (heisenberg_spec(MU, NU), 4, [(65, 64), (300, 300), (600, 600)]),
    (torus_spec_2n([0.3, 1.1]), 3, [(65, 64), (120, 150)]),
], ids=["torus", "heisenberg", "torus2n"])
def test_phase_table_matches_the_per_chunk_route(spec, max_exp, sizes, rng):
    # 65 x 64 pairs are just above one chunk of 4,096
    for p, r in sizes:
        a, b = q_element(spec, rng, max_exp, p), q_element(spec, rng, max_exp, r)
        for x, y in ((a, b), (b, a)):
            got, want, built = _table_and_chunk_products(x, y)
            assert len(built) == 1 and built[0] is not None
            _assert_same_bytes(got, want)
            if p * r <= 300 * 300:
                array_product_matches_loop(QCase, x, y)


def test_one_chunk_products_build_no_table(heisenberg, rng):
    a, b = q_element(heisenberg, rng, 4, 64), q_element(heisenberg, rng, 4, 64)
    got, want, built = _table_and_chunk_products(a, b)
    assert not built
    _assert_same_bytes(got, want)


def test_phase_table_on_zero_angles(rng):
    # U^e V^0 times anything, and anything times U^0 V^f: every angle is a
    # zero, of either sign (theta < 0 here), and no phase is applied
    spec = torus_spec(-THETA)
    flat = QAlgebraSpec(np.zeros((2, 2)))
    a = QElement(spec, {(k, 0): complex(*rng.standard_normal(2)) for k in range(-40, 41)})
    b = q_element(spec, rng, 6, 90)
    c = QElement(spec, {(0, k): complex(*rng.standard_normal(2)) for k in range(-40, 41)})
    for x, y in ((a, b), (b, c), (a, c)):
        got, want, built = _table_and_chunk_products(x, y)
        assert len(built) == 1 and not built[0][3].any()
        _assert_same_bytes(got, want)
        _assert_same_bytes(got, _array_product(QElement(flat, x.terms), QElement(flat, y.terms)))
    # zero angles mixed with nonzero ones
    d = QElement(spec, {**a.terms, **q_element(spec, rng, 6, 40).terms})
    got, want, built = _table_and_chunk_products(d, b)
    assert built[0][3].any() and not built[0][3].all()
    _assert_same_bytes(got, want)
    array_product_matches_loop(QCase, d, b)


def test_phase_table_overflowing_angles(rng):
    # angles of 1e308 times exponents overflow to inf and give nan phases,
    # without a warning
    spec = QAlgebraSpec([[0.0, -1e308], [1e308, 0.0]])
    a, b = q_element(spec, rng, 6, 100), q_element(spec, rng, 6, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, want, built = _table_and_chunk_products(a, b)
        assert len(built) == 1 and built[0] is not None
        assert np.isnan(built[0][2]).any()
        _assert_same_bytes(got, want)
        assert np.isnan(got.keyed()[1]).any()


def test_phase_table_declines_a_grid_wider_than_a_chunk(torus, rng):
    # exponent classes of 201 x 201 values: the per-chunk route
    a, b = q_element(torus, rng, 100, 80), q_element(torus, rng, 100, 80)
    got, want, built = _table_and_chunk_products(a, b)
    assert built == [None]
    _assert_same_bytes(got, want)
    array_product_matches_loop(QCase, a, b)


def test_phase_table_with_sorted_codes(torus, rng):
    # a product box far wider than the dense bins, but only 7 x 7 classes
    def element(wide, n):
        terms = {}
        while len(terms) < n:
            e = [int(rng.integers(-10 ** 6, 10 ** 6)), int(rng.integers(-3, 4))]
            terms[tuple(e[::-1] if wide else e)] = complex(*rng.standard_normal(2))
        return QElement(torus, terms)
    a, b = element(False, 70), element(True, 70)
    a = QElement(torus, {**a.terms, (0, 0): 1.0, (5, 1): 2.0j})
    b = QElement(torus, {**b.terms, (-3, 0): 1.0, (0, -1): 3.0})
    got, want, built = _table_and_chunk_products(a, b)
    assert len(built) == 1 and len(built[0][2]) == 49
    _assert_same_bytes(got, want)
    array_product_matches_loop(QCase, a, b)


def test_phase_table_never_allocates_the_pair_grid(heisenberg, rng):
    # 600 x 600 pairs: phases for all of them at once would take 5.8 MB
    a, b = q_element(heisenberg, rng, 4, 600), q_element(heisenberg, rng, 4, 600)
    tracemalloc.start()
    try:
        _array_product(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


# -- the array routes of sums, negation, scaling, adjoints and norms ----------

ROUTE_SIZES = [qlattice._ARRAY_TERMS + 1, 100, 500, 2000]

# the route contract of tests/test_carrier.py on the q-lattice cases
test_array_sums_match_the_loop = contract_test(
    contract.sums_match_the_loop, Q_CASES, n_terms=ROUTE_SIZES)
test_array_unary_routes_match_the_loop = contract_test(
    contract.unary_routes_match_the_loop, Q_CASES, n_terms=ROUTE_SIZES)
test_held_products_match_the_loop = contract_test(contract.held_products_match_the_loop, Q_CASES)
test_mixed_representation_chains_match_the_loop = contract_test(
    contract.mixed_chains_match_the_loop, Q_CASES)
test_array_routes_prune_as_the_loop = contract_test(
    contract.routes_prune_as_the_loop, TORUS, prune_epsilon=[1e-12, 0.0, -1.0])


@pytest.mark.parametrize("spec, gens", [
    (torus_spec(THETA), [1]),
    (heisenberg_spec(MU, NU), [1, 2]),
    (torus_spec_2n([0.3, 1.1]), [1, 3]),
], ids=["torus", "heisenberg", "torus2n"])
def test_array_laplacian_and_heat_match_the_loop(spec, gens, rng):
    from ncdiff.dirichlet import heat_semigroup, laplacian
    from ncdiff.forms import DifferentialBasis

    basis = DifferentialBasis([QElement.generator(spec, g).scale(0.8 + 0.3j) for g in gens])
    for n_terms in ROUTE_SIZES:
        a = q_element(spec, rng, box_for(spec, n_terms), n_terms)
        want = QCase.loop_route(lambda x: laplacian(x, basis), a)
        for x in (held(a), dict_only(a)):
            got = laplacian(x, basis)
            assert got.keyed() is not None
            assert_close_terms(got, want)
            heat = heat_semigroup(x, 0.3, basis)
            # Delta is diagonal on monomials: e^{-t Delta} decays each term alone
            decay = {e: c * math.exp(-0.3 * (want.terms.get(e, 0j) / c).real)
                     for e, c in a.terms.items()}
            assert_close_terms(heat, QElement(spec, decay))


def test_array_routes_keep_nan(heisenberg, rng):
    contract.routes_keep_nan(HEISENBERG, *(q_element(heisenberg, rng, 4, 60) for _ in range(2)))


def test_array_routes_on_empty_operands(heisenberg, rng):
    contract.routes_on_empty_operands(HEISENBERG, q_element(heisenberg, rng, 4, 60))


def test_huge_exponents_stay_dicts(rng):
    contract.uncodable_stay_dicts(TORUS, rng)
    # exponents that fit int64 but reach 2**62 come back as a dict
    small = QElement.zero(TORUS.parent)
    rows = np.array([[2 ** 62 + 5, 0]], dtype=np.int64)
    assert small._from_keys(rows, [2.0]).terms == {(2 ** 62 + 5, 0): 2 + 0j}
    assert small._from_keys(rows, [2.0]).keyed() is None
    half = QElement(TORUS.parent, {(2 ** 61 + k, 0): 1.0 for k in range(20)})
    square = half * half  # 400 pairs, products reach 2**62
    assert square.keyed() is None
    assert_close_terms(square, loop_product(half, half))


def test_terms_decoded_from_arrays_are_python_scalars(torus, rng, monkeypatch):
    x = contract.terms_decode_once(TORUS, q_element(torus, rng, 6, 60), monkeypatch)
    assert x.keyed() is x.keyed()


def test_held_elements_pickle(heisenberg, rng):
    contract.held_elements_pickle(
        HEISENBERG, *(q_element(heisenberg, rng, 4, 20) for _ in range(2)))


def test_unpickled_spec_is_rebuilt():
    spec = heisenberg_spec(0.1, 0.2)
    back = pickle.loads(pickle.dumps(spec))
    assert back.same_as(spec) and back._pairs == spec._pairs
    assert (back.label, back.meta, back.prune_epsilon) == (spec.label, spec.meta,
                                                          spec.prune_epsilon)
    assert not back.theta.flags.writeable
    with pytest.raises(ValueError):
        back.theta[0, 2] = 0.0


def test_small_sums_mix_arrays_and_dicts(heisenberg, rng):
    contract.small_sums_mix_arrays_and_dicts(
        HEISENBERG, *(q_element(heisenberg, rng, 2, n) for n in (5, 7)))


# -- one exchange angle for products, adjoints and commutators ---------------

UNITARY_SIZES = [3, 10 ** 3, 10 ** 6, 10 ** 8]


def _unit_monomials(spec, rng, max_exp):
    """40 distinct monomials with coefficient 1, exponents in [-max_exp, max_exp]."""
    return QElement(spec, dict.fromkeys(q_element(spec, rng, max_exp, 40).terms, 1.0))


@pytest.mark.parametrize("case", Q_CASES, ids=str)
def test_monomials_are_unitary_at_every_exponent(case, rng):
    spec = case.parent
    one = QElement.one(spec)
    for max_exp in UNITARY_SIZES:
        a = _unit_monomials(spec, rng, max_exp)
        loop = QCase.loop_route(lambda x: x.adjoint(), a)
        for adj in (loop, held(a).adjoint(), dict_only(a).adjoint()):
            assert set(adj.terms) == {tuple(-x for x in e) for e in a.terms}
            for e in a.terms:
                u = QElement.monomial(spec, e)
                v = adj.terms[tuple(-x for x in e)]
                assert v == cmath.exp(1j * qlattice._angle(spec, e, e)), (max_exp, e)
                star = QElement.monomial(spec, [-x for x in e], v)
                assert (star * u - one).norm() == 0.0, (max_exp, e)
                assert (u * star - one).norm() == 0.0, (max_exp, e)
        for e in a.terms:
            u = QElement.monomial(spec, e)
            assert abs(inner(u, u) - 1.0) <= 1e-15, (max_exp, e)


@pytest.mark.parametrize("case", Q_CASES, ids=str)
def test_monomial_products_take_the_one_angle(case, rng):
    spec = case.parent
    for max_exp in UNITARY_SIZES:
        a = _unit_monomials(spec, rng, max_exp)
        f = tuple(rng.integers(-max_exp, max_exp + 1, spec.generator_count).tolist())
        b = QElement.monomial(spec, f)
        on_grid = _array_product(held(a), held(b))
        for e in a.terms:
            want = cmath.exp(1j * qlattice._angle(spec, e, f))
            g = tuple(x + y for x, y in zip(e, f))
            assert (QElement.monomial(spec, e) * b).terms == {g: want}, (max_exp, e)
            assert on_grid.terms[g] == want, (max_exp, e)


def test_element_helper_rejects_a_box_too_small(torus, rng):
    with pytest.raises(ValueError):
        q_element(torus, rng, 1, 10)
    assert len(q_element(torus, rng, 1, 9).terms) == 9

# -- the product and bracket loops against their oracles, which form every
# angle in full --------------------------------------------------------------

# 0, 1 and 3 nonzero structure angles; the last with a negative prune threshold
HOISTED_SPECS = [
    QAlgebraSpec(np.zeros((2, 2))),
    torus_spec(THETA),
    QAlgebraSpec([[0.0, 0.3, -1.1], [-0.3, 0.0, 2.5], [1.1, -2.5, 0.0]]),
    QAlgebraSpec([[0.0, 0.3, -1.1], [-0.3, 0.0, 2.5], [1.1, -2.5, 0.0]], prune_epsilon=-1.0),
]


def _hoisted_operands(spec, rng):
    """Random dicts, Python-int exponents from 2**62 up, nan and inf
    coefficients, zeros of both signs, and the empty dict."""
    m = spec.generator_count
    small = q_element(spec, rng, 3, 6).terms
    big = {tuple(2 ** 62 + 7 * k + j for j in range(m)): complex(*rng.standard_normal(2))
           for k in range(3)}
    big[tuple(-(2 ** 64) for _ in range(m))] = 1j
    odd = {(1,) * m: complex("nan"), (0,) * m: complex("inf"), (-1,) * m: complex(1.0, -0.0),
           (2,) * m: complex(-0.0, 0.0), (3,) * m: complex("-inf") + 1j}
    return [small, big, odd, {**small, **odd}, {}]


def _same_bits(got: dict, want: dict):
    """Keys in one order and every coefficient bit for bit, zero signs and nans too."""
    assert list(got) == list(want)
    assert [(c.real.hex(), c.imag.hex()) for c in got.values()] == \
        [(c.real.hex(), c.imag.hex()) for c in want.values()]


@pytest.mark.parametrize("spec", HOISTED_SPECS, ids=["0 pairs", "1 pair", "3 pairs", "eps < 0"])
def test_pair_product_matches_its_full_angle_oracle(spec, rng):
    operands = _hoisted_operands(spec, rng)
    for ta, tb in itertools.product(operands, repeat=2):
        _same_bits(qlattice._pair_product(spec, ta, tb), pair_product(spec, ta, tb))


@pytest.mark.parametrize("spec", HOISTED_SPECS, ids=["0 pairs", "1 pair", "3 pairs", "eps < 0"])
def test_monomial_ad_loop_matches_its_full_angle_oracle(spec, rng):
    # the loop as delta runs it, through the family hook, and as ad runs it
    m = spec.generator_count
    slots = [((1,) + (0,) * (m - 1), 1.0), ((-2,) * m, 0.5 - 2j), ((2 ** 62 + 1,) * m, 1j)]
    hook = QElement.family_ad([QElement(spec, {g: c}) for g, c in slots])
    for terms in _hoisted_operands(spec, rng):
        a = QElement(spec, terms)  # keeps zeros only where prune_epsilon < 0
        parts = hook(a)
        for (g, c), part in zip(slots, parts):
            for acc, sign in [(None, 1), (None, -1), (dict(a.terms), 1), ({(9,) * m: 2j}, -1)]:
                got = add_terms(None if acc is None else dict(acc), part.items(), sign,
                                spec.prune_epsilon)
                _same_bits(got, monomial_ad_loop(spec, g, c, a.terms, acc, sign))
            _same_bits(QElement(spec, {g: c}).ad()(a).terms,
                       monomial_ad_loop(spec, g, c, a.terms, None, 1))


def test_loops_raise_on_exponents_beyond_floats_as_their_oracles_do():
    # an exponent of 10**400 has no float: the product raises at its first
    # angle, and forms none when the other operand is empty; a monomial with
    # it has no bracket loop, while the oracle's loop raises at its first term
    spec = torus_spec(THETA)
    big = 10 ** 400
    huge = {(big, big): 1.0}
    for ta, tb in [(huge, {(1, 1): 2.0}), ({(1, 1): 2.0}, huge)]:
        for loop in (qlattice._pair_product, pair_product):
            with pytest.raises(OverflowError):
                loop(spec, ta, tb)
    for ta, tb in [(huge, {}), ({}, huge)]:
        assert qlattice._pair_product(spec, ta, tb) == pair_product(spec, ta, tb) == {}
    with pytest.raises(OverflowError):
        QElement(spec, huge).ad()
    with pytest.raises(OverflowError):
        monomial_ad_loop(spec, (big, big), 1.0, {(1, 1): 1.0}, None, 1)
    hook = QElement.family_ad([QElement.generator(spec, 1)])
    with pytest.raises(OverflowError):
        hook(QElement(spec, huge))
    with pytest.raises(OverflowError):
        monomial_ad_loop(spec, (1, 0), 1.0, huge, None, 1)
