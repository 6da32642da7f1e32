import cmath
import itertools
import math

import numpy as np
import pytest

from ncdiff.carrier import commutator
from ncdiff.qlattice import (QAlgebraSpec, QElement, SpecMismatchError,
                             clock_shift_rep, element_from_json,
                             element_to_json, inner,
                             normal_order, spec_from_json, spec_to_json, tau,
                             theta_hat, torus_spec, torus_spec_2n,
                             weyl_lattice_spec)
from ncdiff.testing import random_qelement

from conftest import MU, NU, THETA


def test_spec_validation():
    with pytest.raises(ValueError):
        QAlgebraSpec([[0.0, 1.0], [1.0, 0.0]])  # not skew
    with pytest.raises(ValueError):
        QAlgebraSpec(np.zeros((2, 3)))
    spec = torus_spec(THETA)
    assert spec.generator_count == 2
    assert spec.theta[1, 0] == THETA


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


def test_pruning():
    spec = torus_spec(0.1)
    a = QElement(spec, {(1, 0): 1e-15, (0, 1): 1.0})
    assert set(a.terms) == {(0, 1)}
