import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ncdiff import qlattice
from ncdiff.carrier import commutator
from ncdiff.qlattice import (QAlgebraSpec, QElement, SpecMismatchError,
                             _array_product, clock_shift_rep, element_from_json,
                             element_to_json, heisenberg_spec, inner,
                             normal_order, spec_from_json, spec_to_json, tau,
                             theta_hat, torus_spec, torus_spec_2n,
                             weyl_lattice_spec)
from ncdiff.testing import loop_product, random_qelement

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


# -- the array route of the product -------------------------------------------

def _element(spec, rng, max_exp, n_terms):
    """Element with exactly ``n_terms`` monomials, exponents in [-max_exp, max_exp]."""
    terms = {}
    while len(terms) < n_terms:
        e = tuple(rng.integers(-max_exp, max_exp + 1, spec.generator_count).tolist())
        terms[e] = complex(*rng.standard_normal(2))
    return QElement(spec, terms)


def _assert_array_matches_loop(a, b):
    got = _array_product(a.spec, a.terms, b.terms)
    want = loop_product(a, b)
    assert set(got.terms) == set(want.terms)
    assert all(type(x) is int for e in got.terms for x in e)
    assert all(type(c) is complex for c in got.terms.values())
    for e, c in want.terms.items():
        assert abs(got.terms[e] - c) <= 1e-13, e
    return got


NO_ANGLES = QAlgebraSpec(np.zeros((3, 3)), label="commutative")


@pytest.mark.parametrize("spec, max_exp, sizes", [
    (torus_spec(THETA), 6, [(1, 1), (7, 7), (16, 16), (16, 17), (60, 60)]),
    (heisenberg_spec(MU, NU), 4, [(1, 1), (16, 17), (300, 300)]),
    (torus_spec_2n([0.3, 1.1]), 3, [(16, 17), (120, 150)]),
    (NO_ANGLES, 4, [(16, 17), (200, 100)]),
])
def test_array_product_matches_loop(spec, max_exp, sizes, rng):
    for p, r in sizes:
        a, b = _element(spec, rng, max_exp, p), _element(spec, rng, max_exp, r)
        _assert_array_matches_loop(a, b)
        _assert_array_matches_loop(b, a)


@pytest.mark.parametrize("prune_epsilon", [1e-12, 0.0, -1.0])
def test_array_product_prunes_exact_cancellations(prune_epsilon):
    # (1 + U + ... + U^{n-1})(V - U V) = V - U^n V: every inner term cancels exactly
    spec = QAlgebraSpec(torus_spec(THETA).theta, prune_epsilon=prune_epsilon)
    n = 300
    a = QElement(spec, {(k, 0): 1.0 for k in range(n)})
    b = QElement(spec, {(0, 1): 1.0, (1, 1): -1.0})
    got = _assert_array_matches_loop(a, b)
    want_keys = {(0, 1), (n, 1)} if prune_epsilon >= 0 else {(k, 1) for k in range(n + 1)}
    assert set(got.terms) == want_keys


def test_array_product_keeps_nan(rng):
    spec = heisenberg_spec(MU, NU)
    a, b = _element(spec, rng, 3, 20), _element(spec, rng, 3, 20)
    e0 = next(iter(a.terms))
    a = QElement(spec, {**a.terms, e0: complex(math.nan, 0.0)})
    got, want = _array_product(spec, a.terms, b.terms), loop_product(a, b)
    assert set(got.terms) == set(want.terms)
    nan_keys = {e for e, c in want.terms.items() if cmath.isnan(c)}
    assert nan_keys == {tuple(x + y for x, y in zip(e0, f)) for f in b.terms}
    assert nan_keys == {e for e, c in got.terms.items() if cmath.isnan(c)}
    assert math.isnan((a * b).norm())


def test_array_product_empty_operand(heisenberg, rng):
    a = _element(heisenberg, rng, 3, 40)
    zero = QElement.zero(heisenberg)
    assert _array_product(heisenberg, a.terms, {}).terms == {}
    assert _array_product(heisenberg, {}, a.terms).terms == {}
    assert (zero * a).terms == {} and (a * zero).terms == {}


@pytest.mark.parametrize("spec, max_exp", [
    (torus_spec(THETA), 10 ** 6),            # codes fit int64: sorted codes
    (heisenberg_spec(MU, NU), 10 ** 5),
    (torus_spec_2n([0.3, 1.1]), 10 ** 3),
    (heisenberg_spec(MU, NU), 10 ** 6),      # box beyond int64: the pair loop
    (torus_spec_2n([0.3, 1.1]), 10 ** 6),
    (torus_spec(THETA), 2 ** 63 - 1),        # exponents beyond int64 sums: the pair loop
])
def test_array_product_wide_boxes(spec, max_exp, rng):
    a, b = _element(spec, rng, max_exp, 40), _element(spec, rng, max_exp, 30)
    _assert_array_matches_loop(a, b)
    # terms that merge in a wide box: a progression along the diagonal
    a = QElement(spec, {(k * max_exp,) * spec.generator_count: 1.0 + 0.5j * k
                        for k in range(-3, 4)})
    assert len(_assert_array_matches_loop(a, a).terms) == 13


def test_array_product_never_allocates_the_box():
    # 100 x 100 pairs in a box of 1201^2 codes: dense bins would take ~24 MB
    spec = torus_spec(THETA)
    rng = np.random.default_rng(5)
    a, b = _element(spec, rng, 300, 100), _element(spec, rng, 300, 100)
    tracemalloc.start()
    try:
        _array_product(spec, a.terms, b.terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_small_products_stay_on_the_loop(torus, rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("array route entered")
    monkeypatch.setattr(qlattice, "_array_product", refuse)
    U, V = QElement.generator(torus, 1), QElement.generator(torus, 2)
    assert set((U * V).terms) == {(1, 1)}
    a, b = _element(torus, rng, 6, 16), _element(torus, rng, 6, 16)
    a * b  # 256 pairs: at the cut
    with pytest.raises(AssertionError, match="array route"):
        a * _element(torus, rng, 6, 17)
