import numpy as np
import pytest

from ncdiff.carrier import commutator
from ncdiff.dirichlet import laplacian
from ncdiff.forms import DifferentialBasis
from ncdiff.matrix_algebra import (MatElement, mat_from_json, mat_to_json, offdiag,
                                   projection_basis, trace)
from ncdiff.testing import random_matelement


def test_projection_basis():
    ps = projection_basis(2)
    assert np.allclose(ps[0].mat, np.diag([1.0, 0.0]))
    assert np.allclose(ps[1].mat, np.diag([0.0, 1.0]))
    for n in (2, 3, 5):
        ps = projection_basis(n)
        total = sum((p.mat for p in ps), np.zeros((n, n), dtype=complex))
        assert np.allclose(total, np.eye(n))
        for j, pj in enumerate(ps):
            for k, pk in enumerate(ps):
                expect = pj.mat if j == k else np.zeros((n, n))
                assert np.allclose((pj * pk).mat, expect)


def test_projection_basis_rejects_small():
    with pytest.raises(ValueError):
        projection_basis(1)


def test_commutator_hand_values():
    p1, p2 = projection_basis(2)
    e12 = MatElement.unit(2, 0, 1)
    assert (commutator(p1, e12) - e12).norm() < 1e-15
    assert (commutator(p2, e12) + e12).norm() < 1e-15
    assert commutator(p1, p2).norm() == 0.0


def test_offdiag(rng):
    d = MatElement(np.diag([1.0, 2.0]))
    assert offdiag(d).norm() == 0.0
    e12 = MatElement.unit(2, 0, 1)
    assert (offdiag(e12) - e12).norm() == 0.0
    a = random_matelement(4, rng)
    assert (offdiag(offdiag(a)) - offdiag(a)).norm() == 0.0
    # diagonal/off-diagonal orthogonality under the trace pairing
    for _ in range(50):
        a = random_matelement(4, rng)
        b = random_matelement(4, rng)
        lhs = np.trace(offdiag(a).adjoint().mat @ b.mat)
        rhs = np.trace(a.adjoint().mat @ offdiag(b).mat)
        assert abs(lhs - rhs) < 1e-12


def test_trace_flag():
    a = MatElement(np.diag([2.0, 4.0]))
    assert trace(a, normalized=False) == 6.0
    assert trace(a, normalized=True) == 3.0


def test_laplacian_is_twice_offdiag(rng):
    # Delta(a) = 2 offdiag(a) and sum_j [p_j,[p_j,a]] = 2 offdiag(a)
    for n in (2, 4):
        basis = DifferentialBasis(projection_basis(n), mode="selfadjoint")
        ps = projection_basis(n)
        for _ in range(100):
            a = random_matelement(n, rng)
            lap = laplacian(a, basis)
            assert (lap - offdiag(a).scale(2)).norm() <= 1e-12
            nested = sum((commutator(p, commutator(p, a)).mat for p in ps),
                         np.zeros((n, n), dtype=complex))
            assert np.abs(nested - 2 * offdiag(a).mat).max() <= 1e-12
            # diagonal compression identity: sum_j p_j a p_j = diag(a)
            compressed = sum(((p * a * p).mat for p in ps),
                             np.zeros((n, n), dtype=complex))
            assert np.allclose(compressed, np.diag(np.diag(a.mat)))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        MatElement.identity(2) * MatElement.identity(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        DifferentialBasis([MatElement.identity(2), MatElement.identity(3)])


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        MatElement(np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        MatElement(np.ones((2, 3)))


def test_json_roundtrip(rng):
    a = random_matelement(3, rng)
    d = mat_to_json(a)
    assert d["n"] == 3 and len(d["rows"]) == 3
    b = mat_from_json(d)
    assert (a - b).norm() < 1e-15
