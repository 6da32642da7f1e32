import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ncdiff.dirichlet as D
from ncdiff.carrier import EQ_TOLERANCE
from ncdiff.forms import BasisConditionError, BasisModeError, DifferentialBasis
from ncdiff.matrix_algebra import MatElement, joint_eigenbasis, projection_basis, trace
from ncdiff.qlattice import QElement, tau
from ncdiff.testing import random_matelement, random_qelement

from conftest import THETA


@pytest.fixture(scope="module")
def p_basis2():
    return DifferentialBasis(projection_basis(2), mode="selfadjoint",
                             label="M_2 projections")


@pytest.fixture(scope="module")
def clock_basis3():
    w = cmath.exp(2j * math.pi / 3)
    C = MatElement(np.diag([1.0, w, w * w]))
    return DifferentialBasis([C], label="M_3 clock")


def test_laplacian_examples(p_basis2, torus, torus_basis):
    e12 = MatElement.unit(2, 0, 1)
    assert (D.laplacian(e12, p_basis2) - e12.scale(2)).norm() < 1e-14
    assert D.laplacian(MatElement.identity(2), p_basis2).norm() == 0.0
    V = QElement.generator(torus, 2)
    lap = D.laplacian(V, torus_basis)
    ev = abs(1 - cmath.exp(1j * THETA)) ** 2
    assert abs(lap.terms[(0, 1)] - ev) < 1e-13
    assert abs(ev - (2 - 2 * math.cos(THETA))) < 1e-15


def test_laplacian_prefactor_scaling(torus):
    V = QElement.generator(torus, 2)
    U = QElement.generator(torus, 1)
    scaled = DifferentialBasis([U], prefactors=[1.0 / THETA])
    lap = D.laplacian(V, scaled)
    ev = abs(1 - cmath.exp(1j * THETA)) ** 2 / THETA ** 2
    assert abs(lap.terms[(0, 1)] - ev) < 1e-12
    # complex prefactor on a self-adjoint basis conjugates in the outer slot
    cbasis = DifferentialBasis(projection_basis(2), prefactors=[2j, 1.0],
                               mode="selfadjoint")
    e12 = MatElement.unit(2, 0, 1)
    assert (D.laplacian(e12, cbasis) - e12.scale(5)).norm() < 1e-14


def test_heat_semigroup_matrix(p_basis2, rng):
    e12 = MatElement.unit(2, 0, 1)
    for t in (0.1, 1.0, 3.0):
        phi = D.heat_semigroup(e12, t, p_basis2)
        assert (phi - e12.scale(math.exp(-2 * t))).norm() < 1e-12
    # identity and diagonals are fixed
    one = MatElement.identity(2)
    assert (D.heat_semigroup(one, 5.0, p_basis2) - one).norm() == 0.0
    diag = MatElement(np.diag([0.3, -1.2]))
    assert (D.heat_semigroup(diag, 2.0, p_basis2) - diag).norm() < 1e-13
    with pytest.raises(ValueError):
        D.heat_semigroup(e12, -0.5, p_basis2)


def test_heat_semigroup_q_diagonal(torus, torus_basis):
    V = QElement.generator(torus, 2)
    ev = abs(1 - cmath.exp(1j * THETA)) ** 2
    for t in (0.5, 2.0):
        phi = D.heat_semigroup(V, t, torus_basis)
        assert abs(phi.terms[(0, 1)] - math.exp(-t * ev)) < 1e-13
    assert (D.heat_semigroup(QElement.one(torus), 4.0, torus_basis)
            - QElement.one(torus)).norm() == 0.0


def test_semigroup_law(p_basis3, torus, torus_basis, rng):
    S1 = D.heat_superoperator(0.4, p_basis3, 3)
    S2 = D.heat_superoperator(1.1, p_basis3, 3)
    S12 = D.heat_superoperator(1.5, p_basis3, 3)
    assert np.abs(S1 @ S2 - S12).max() <= 1e-10
    a = random_qelement(torus, rng)
    lhs = D.heat_semigroup(D.heat_semigroup(a, 0.4, torus_basis), 1.1, torus_basis)
    rhs = D.heat_semigroup(a, 1.5, torus_basis)
    assert (lhs - rhs).norm() <= 1e-12


def test_choi_t0_maximally_entangled(p_basis3):
    C0 = D.choi_matrix(0.0, 3, p_basis3).mat
    lam = np.linalg.eigvalsh(C0)
    assert abs(lam[0]) < 1e-12
    assert abs(lam[-1] - 3.0) < 1e-12
    # rank one
    assert (lam > 1e-10).sum() == 1


def test_choi_matches_definition(p_basis3):
    # reshape shortcut vs the defining sum over matrix units
    n = 3
    t = 0.7
    S = D.heat_superoperator(t, p_basis3, n)
    C = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            eij = np.zeros((n, n), dtype=complex)
            eij[i, j] = 1.0
            phi = (S @ eij.reshape(-1)).reshape(n, n)
            C += np.kron(eij, phi)
    assert np.abs(C - D.choi_matrix(t, n, p_basis3).mat).max() < 1e-12


def test_audit(p_basis3):
    audit = D.audit_semigroup([0.1, 1.0, 10.0], 3, p_basis3, samples=100)
    for row in audit.results:
        assert row["choi_min_eigenvalue"] >= -1e-10
        assert row["symmetry_error"] <= 1e-10
        assert row["conservativity_error"] == 0.0
        assert row["markov_min"] >= -1e-10
        assert row["markov_max"] <= 1 + 1e-10
    d = audit.to_json()
    assert set(d) == {"n", "basis", "results"}
    csv = audit.to_csv()
    assert csv.splitlines()[0] == \
        "t,choi_min,symmetry_err,conservative_err,markov_min,markov_max"
    assert len(csv.splitlines()) == 4


def _random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(z)[0]


def _rotated_unitary_basis(n, seed):
    """Two commuting unitaries Q diag(exp(i phi)) Q^* with complex prefactors."""
    rng = np.random.default_rng(seed)
    q = _random_unitary(n, rng)
    mats = [MatElement(q @ np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, n)))
                       @ q.conj().T) for _ in range(2)]
    return DifferentialBasis(mats, prefactors=[0.8 + 0.3j, 1.1 - 0.4j],
                             label=f"rotated M_{n} unitaries")


@pytest.mark.parametrize("kind, n", [("projection", n) for n in (2, 3, 4, 5)]
                         + [("rotated", 7), ("rotated", 12),
                            ("rotated-projection", 6)],
                         ids=lambda v: str(v))
def test_schur_heat_matches_superoperator(kind, n, rng):
    if kind == "projection":
        basis = DifferentialBasis(projection_basis(n), mode="selfadjoint")
    elif kind == "rotated":
        basis = _rotated_unitary_basis(n, seed=n)
    else:
        # each rotated projection splits one eigenvector off a degenerate rest,
        # so the eigenbasis comes from refining one element at a time
        q = _random_unitary(n, np.random.default_rng(n))
        basis = DifferentialBasis([MatElement(q @ p.mat @ q.conj().T)
                                   for p in projection_basis(n)], mode="selfadjoint")
    ts = (0.0, 0.1, 1.0, 10.0)
    for t in ts:
        S = D.heat_superoperator(t, basis, n)
        a = random_matelement(n, rng)
        fast = D.heat_semigroup(a, t, basis).mat
        assert np.abs(fast - (S @ a.mat.reshape(-1)).reshape(n, n)).max() <= 1e-12
    audit = D.audit_semigroup(ts, n, basis, samples=10)
    for t, row in zip(ts, audit.results):
        C = D.choi_matrix(t, n, basis).mat
        choi_min = np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0]
        assert abs(row["choi_min_eigenvalue"] - choi_min) <= 1e-12
        if kind == "projection":
            assert row["conservativity_error"] == 0.0


# -- joint eigenbasis against the superoperator oracle ------------------------

_PHI = (1.0 + math.sqrt(5.0)) / 2.0
# weights w_k = 1 + frac(k phi) of X + X^* and i(X - X^*) in a single real
# combination; the eigenvalue 1 + i w1/w2 lands on 0 in that combination
_W1, _W2 = 1.0 + _PHI % 1.0, 1.0 + (2.0 * _PHI) % 1.0
_GOLDEN_ALIGNED = (_random_unitary(3, np.random.default_rng(3)),
                   [np.array([0.0, 1.0 + 1j * _W1 / _W2, 3.0])], [1.0])


@st.composite
def normal_families(draw):
    """(R, [lambda_j], [c_j]) for the commuting normal family R diag(lambda_j) R^*.

    Eigenvalues come from a small Gaussian-integer grid, so they repeat
    within an element and across elements.
    """
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.integers(1, n))
    lams = []
    for _ in range(k):
        grid = rng.integers(-2, 3, levels) + 1j * rng.integers(-2, 3, levels)
        lams.append(rng.choice(grid, n))
    prefactors = [complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(k)]
    return _random_unitary(n, rng), lams, prefactors


def _rotated(R, lams):
    return [R @ np.diag(lam) @ R.conj().T for lam in lams]


def _pairwise_commute(mats) -> bool:
    """The commutator rule for other carriers: every [X_i, X_j], [X_i, X_j^*] small."""
    pool = mats + [X.conj().T for X in mats]
    return all(np.abs(X @ Y - Y @ X).max() <= EQ_TOLERANCE for X in mats for Y in pool)


@pytest.mark.filterwarnings("ignore:basis element")
@settings(max_examples=25, deadline=None, derandomize=True)
@given(family=normal_families(), t=st.sampled_from([0.1, 1.0]), seed=st.integers(0, 99))
@example(family=_GOLDEN_ALIGNED, t=1.0, seed=0)
def test_joint_eigenbasis_matches_superoperator(family, t, seed):
    R, lams, prefactors = family
    mats = _rotated(R, lams)
    n = R.shape[0]
    Q, found = joint_eigenbasis(mats)
    Q = np.eye(n) if Q is None else Q  # an all-diagonal family, such as zero
    assert np.abs(Q.conj().T @ Q - np.eye(n)).max() <= 1e-12
    for X, lam in zip(mats, found):
        assert np.abs(Q.conj().T @ X @ Q - np.diag(lam)).max() <= 1e-12
    basis = DifferentialBasis([MatElement(X) for X in mats], prefactors=prefactors)
    a = random_matelement(n, np.random.default_rng(seed))
    S = D.heat_superoperator(t, basis, n)
    fast = D.heat_semigroup(a, t, basis).mat
    assert np.abs(fast - (S @ a.mat.reshape(-1)).reshape(n, n)).max() <= 1e-12
    C = D.choi_matrix(t, n, basis).mat
    choi_min = np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0]
    row, = D.audit_semigroup([t], n, basis, samples=2).results
    assert abs(row["choi_min_eigenvalue"] - choi_min) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(family=normal_families(), eps=st.sampled_from([1e-6, 1e-3]), data=st.data())
def test_perturbed_family_is_rejected(family, eps, data):
    R, lams, _ = family
    n = R.shape[0]
    # the pairwise rule sees a Hermitian coupling of eigenvectors a and b at
    # first order once some element, or the imaginary part of the first, tells
    # them apart
    labels = [tuple(lam[i] for lam in lams[1:]) + (lams[0][i].imag,) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a) if labels[a] != labels[b]]
    assume(pairs)
    a, b = data.draw(st.sampled_from(pairs))
    coupling = np.zeros((n, n))
    coupling[a, b] = coupling[b, a] = eps
    mats = _rotated(R, lams)
    mats[0] = R @ (np.diag(lams[0]) + coupling) @ R.conj().T
    assert not _pairwise_commute(mats)
    assert joint_eigenbasis(mats) is None
    with pytest.raises(BasisConditionError, match="mutually commute"):
        DifferentialBasis([MatElement(X) for X in mats])


def test_heat_rejects_bad_input(p_basis2, torus, torus_basis):
    e12 = MatElement.unit(2, 0, 1)
    V = QElement.generator(torus, 2)
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError):
            D.heat_semigroup(e12, t, p_basis2)
        with pytest.raises(ValueError):
            D.heat_semigroup(V, t, torus_basis)
        with pytest.raises(ValueError):
            D.audit_semigroup([1.0, t], 2, p_basis2)
    with pytest.raises(ValueError):
        D.audit_semigroup([1.0], 2, p_basis2, samples=0)
    with pytest.raises(ValueError):
        D.audit_semigroup([], 2, p_basis2)
    # the basis must be a matrix basis of the operand's size
    for call in (lambda: D.heat_semigroup(e12, 1.0, torus_basis),
                 lambda: D.audit_semigroup([1.0], 3, p_basis2)):
        with pytest.raises(ValueError, match="does not act on this matrix dimension"):
            call()


def test_trotter(p_basis2, p_basis3):
    assert D.trotter_check(0.0, 8, 2, p_basis2) == 0.0
    e8 = D.trotter_check(1.0, 8, 2, p_basis2)
    e64 = D.trotter_check(1.0, 64, 2, p_basis2)
    # the conjugation/anticommutator split commutes for a normal basis, so
    # both errors sit at machine precision; compare with a float cushion
    assert e64 <= e8 + 1e-12
    assert D.trotter_check(1.0, 4096, 3, p_basis3) <= 1e-6
    with pytest.raises(ValueError):
        D.trotter_check(1.0, 0, 2, p_basis2)


def test_trotter_split_reassembles_generator(p_basis3):
    # -Delta = K1 + K2 for the projection basis
    n = 3
    K1 = np.zeros((n * n, n * n), dtype=complex)
    A = np.zeros((n, n), dtype=complex)
    for x in p_basis3.scaled:
        X = x.mat
        Xs = X.conj().T
        K1 += np.kron(Xs, X.T) + np.kron(X, Xs.T)
        A -= Xs @ X
    K2 = np.kron(A, np.eye(n)) + np.kron(np.eye(n), A.T)
    Ds = D.delta_superoperator(p_basis3, n)
    assert np.abs(K1 + K2 + Ds).max() < 1e-13


def test_carre_du_champ_matrix_example(p_basis2):
    e12 = MatElement.unit(2, 0, 1)
    e22 = MatElement.unit(2, 1, 1)
    # single-half sum: sum_j [p_j, a]^* [p_j, a] = 2 e22
    half = None
    for x in p_basis2.scaled:
        t = (x * e12 - e12 * x).adjoint() * (x * e12 - e12 * x)
        half = t if half is None else half + t
    assert (half - e22.scale(2)).norm() < 1e-14
    # both-halves identity value doubles it
    assert (D.carre_du_champ(e12, e12, p_basis2) - e22.scale(4)).norm() < 1e-14
    assert (D.carre_du_champ_first_order(e12, e12, p_basis2) - e22.scale(4)).norm() < 1e-14


def test_carre_du_champ_identity(p_basis3, torus, torus_basis, rng):
    one3 = MatElement.identity(3)
    assert D.carre_du_champ(one3, random_matelement(3, rng), p_basis3).norm() < 1e-13
    for _ in range(100):
        a, c = random_matelement(3, rng), random_matelement(3, rng)
        lhs = D.carre_du_champ(a, c, p_basis3)
        rhs = D.carre_du_champ_first_order(a, c, p_basis3)
        assert (lhs - rhs).norm() <= 1e-10
    for _ in range(100):
        a, c = random_qelement(torus, rng), random_qelement(torus, rng)
        lhs = D.carre_du_champ(a, c, torus_basis)
        rhs = D.carre_du_champ_first_order(a, c, torus_basis)
        assert (lhs - rhs).norm() <= 1e-10


def test_dirichlet_form_values(p_basis2, torus, torus_basis, rng):
    e12 = MatElement.unit(2, 0, 1)
    gen_side, delta_side = D.dirichlet_form(e12, e12, p_basis2)
    assert abs(gen_side - 1.0) < 1e-13
    assert abs(delta_side - 1.0) < 1e-13
    one = MatElement.identity(2)
    gs, ds = D.dirichlet_form(one, one, p_basis2)
    assert abs(gs) < 1e-14 and abs(ds) < 1e-14
    # complex mode carries the factor 2, self-adjoint mode factor 1
    for _ in range(100):
        a = random_qelement(torus, rng)
        gs, ds = D.dirichlet_form(a, a, torus_basis)
        assert abs(ds - 2 * gs) <= 1e-10
    p_basis3 = DifferentialBasis(projection_basis(3), mode="selfadjoint")
    for _ in range(100):
        a = random_matelement(3, rng)
        gs, ds = D.dirichlet_form(a, a, p_basis3)
        assert abs(ds - gs) <= 1e-10


def test_generator_trace_properties(p_basis3, torus, torus_basis, rng):
    # tau-symmetric, tau-positive, trace-annihilating
    for _ in range(100):
        a, b = random_matelement(3, rng), random_matelement(3, rng)
        lhs = trace(D.laplacian(a, p_basis3).adjoint() * b)
        rhs = trace(a.adjoint() * D.laplacian(b, p_basis3))
        assert abs(lhs - rhs) <= 1e-10
        assert trace(a.adjoint() * D.laplacian(a, p_basis3)).real >= -1e-12
        assert abs(trace(D.laplacian(a, p_basis3))) <= 1e-12
    for _ in range(100):
        a, b = random_qelement(torus, rng), random_qelement(torus, rng)
        lhs = tau(D.laplacian(a, torus_basis).adjoint() * b)
        rhs = tau(a.adjoint() * D.laplacian(b, torus_basis))
        assert abs(lhs - rhs) <= 1e-10
        assert tau(a.adjoint() * D.laplacian(a, torus_basis)).real >= -1e-12
        assert abs(tau(D.laplacian(a, torus_basis))) <= 1e-12


def test_locality_isometry(clock_basis3, torus, torus_basis, rng):
    b0 = random_matelement(3, rng)
    w = D.locality_isometry(MatElement.identity(3), b0, clock_basis3)
    assert len(w) == 2
    assert all(x.norm() < 1e-13 for x in w)
    for _ in range(100):
        a, b, c, d = (random_matelement(3, rng) for _ in range(4))
        assert D.isometry_check(a, b, c, d, clock_basis3) <= 1e-10
    for _ in range(50):
        a, b, c, d = (random_qelement(torus, rng, max_exp=2, n_terms=2)
                      for _ in range(4))
        assert D.isometry_check(a, b, c, d, torus_basis) <= 1e-10


def test_locality_needs_complex_mode(p_basis2):
    e = MatElement.identity(2)
    with pytest.raises(BasisModeError):
        D.locality_isometry(e, e, p_basis2)
