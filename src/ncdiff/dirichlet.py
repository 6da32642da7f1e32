"""Laplacian, heat semigroup and Dirichlet-form machinery over a differential basis.

The generator is Delta = sum_j [(c_j U_j)^*, [c_j U_j, .]].  A differential
basis is commuting and normal, so on a matrix carrier its elements are
U_j = Q diag(lambda_j) Q^* in one eigenbasis Q, which the basis keeps; Delta acts
as the Schur (entrywise) multiplier with symbol
W[a, b] = sum_j |c_j|^2 |lambda_j(a) - lambda_j(b)|^2 on Q^* a Q.  The heat channel
is then Phi_t(a) = Q (exp(-t W) o Q^* a Q) Q^*, and it is completely
positive exactly when its symbol exp(-t W) is positive semidefinite.  The
n^2 x n^2 superoperators on row-major vectorized matrices
(:func:`delta_superoperator`, :func:`heat_superoperator`,
:func:`choi_matrix`, :func:`trotter_check`) stay as the reference path the
tests compare against.  On q-lattice carriers Delta acts diagonally on
monomials, so the semigroup is evaluated exactly with no truncation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .carrier import commutator
from .forms import BasisModeError, DifferentialBasis
from .matrix_algebra import MatElement, trace
from .qlattice import QElement, _mul_angle, tau as q_tau


def laplacian(a, basis: DifferentialBasis):
    """Delta(a) = sum_j [(c_j U_j)^*, [c_j U_j, a]] on any carrier."""
    out = None
    for x, xs in zip(basis.scaled, basis.scaled_star):
        term = commutator(xs, commutator(x, a))
        out = term if out is None else out + term
    return out


def default_trace(a):
    """Normalized trace on matrices, identity-coefficient trace on q-elements."""
    if isinstance(a, MatElement):
        return trace(a, normalized=True)
    if isinstance(a, QElement):
        return q_tau(a)
    raise TypeError(f"no trace available for {type(a).__name__}")


# -- matrix superoperators (reference path) ----------------------------------

def _left_mul(X: np.ndarray, n: int) -> np.ndarray:
    return np.kron(X, np.eye(n))


def _right_mul(X: np.ndarray, n: int) -> np.ndarray:
    return np.kron(np.eye(n), X.T)


def _comm_superop(X: np.ndarray, n: int) -> np.ndarray:
    return _left_mul(X, n) - _right_mul(X, n)


def _basis_mats(basis: DifferentialBasis, n: int) -> list[np.ndarray]:
    # only a validated matrix basis has an eigenbasis, and its elements share one size
    if basis.eigenbasis is None or basis.elements[0].n != n:
        raise ValueError("basis does not act on this matrix dimension")
    return [x.mat for x in basis.scaled]


def delta_superoperator(basis: DifferentialBasis, n: int) -> np.ndarray:
    """Delta as an n^2 x n^2 matrix on vectorized matrices; Hermitian PSD."""
    D = np.zeros((n * n, n * n), dtype=complex)
    for X in _basis_mats(basis, n):
        M = _comm_superop(X, n)
        Ms = _comm_superop(X.conj().T, n)
        D += Ms @ M
    return D


def _expm_negative(D: np.ndarray, t: float) -> np.ndarray:
    """exp(-t D) for the Hermitian D = sum_j M_j^* M_j, via ``eigh``.

    Exactly diagonal generators (the projection basis) exponentiate
    entrywise, keeping fixed points bit-exact.
    """
    diag = np.diag(D)
    if not (D - np.diag(diag)).any():
        return np.diag(np.exp(-t * diag.real))
    lam, V = np.linalg.eigh(D)
    return (V * np.exp(-t * lam)) @ V.conj().T


def heat_superoperator(t: float, basis: DifferentialBasis, n: int) -> np.ndarray:
    if t < 0:
        raise ValueError("time must be nonnegative")
    return _expm_negative(delta_superoperator(basis, n), t)


# -- matrix Schur-multiplier route -------------------------------------------

def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")


def _heat_symbol(basis: DifferentialBasis, n: int):
    """(Q, W) with Delta(a) = Q (W o Q^* a Q) Q^*, from the basis's eigenbasis."""
    _basis_mats(basis, n)
    Q, lams = basis.eigenbasis
    W = sum(abs(c) ** 2 * np.abs(lam[:, None] - lam[None, :]) ** 2
            for c, lam in zip(basis.prefactors, lams))
    return Q, W


def _schur_heat(Q, M: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Phi_t(m) = Q (M o Q^* m Q) Q^* for the symbol M = exp(-t W)."""
    if Q is None:
        return M * m
    Qh = Q.conj().T
    return Q @ (M * (Qh @ m @ Q)) @ Qh


def _q_eigenvalue(basis: DifferentialBasis, spec, exponents: tuple) -> float:
    """Diagonal action of Delta on a q-lattice monomial.

    For a single-monomial basis element b = c * U^g one has
    b x = exp(i phi) x b with phi the exchange angle, and the nested
    commutator contributes |c|^2 * |1 - exp(i phi)|^2.
    """
    lam = 0.0
    for x in basis.scaled:
        if len(x.terms) != 1:
            raise ValueError("q-carrier semigroup needs single-monomial basis elements")
        if not x.spec.same_as(spec):
            raise ValueError("basis does not act on this presentation")
        (g, c), = x.terms.items()
        phi = _mul_angle(spec, g, exponents) - _mul_angle(spec, exponents, g)
        lam += abs(c) ** 2 * abs(1.0 - cmath.exp(1j * phi)) ** 2
    return lam


def heat_semigroup(a, t: float, basis: DifferentialBasis):
    """Apply exp(-t Delta) to a matrix or q-lattice element."""
    _check_time(t)
    if isinstance(a, MatElement):
        Q, W = _heat_symbol(basis, a.n)
        return MatElement(_schur_heat(Q, np.exp(-t * W), a.mat))
    if isinstance(a, QElement):
        out = {e: c * float(np.exp(-t * _q_eigenvalue(basis, a.spec, e)))
               for e, c in a.terms.items()}
        return a._like(out)
    raise TypeError(f"no semigroup evaluation for {type(a).__name__}")


def choi_matrix(t: float, n: int, basis: DifferentialBasis) -> MatElement:
    """Choi matrix sum_{ij} e_ij (x) Phi_t(e_ij) of the heat channel."""
    S = heat_superoperator(t, basis, n)
    C = S.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)
    return MatElement(C)


@dataclass
class SemigroupAudit:
    """Per-time diagnostics of the heat channel.

    ``results`` rows carry: choi_min_eigenvalue (complete positivity needs
    >= 0), symmetry_error (trace-symmetry defect over random pairs),
    conservativity_error (|Phi_t(1) - 1|), markov_min/markov_max (spectral
    range of Phi_t over random operators between 0 and 1).
    """
    n: int
    basis_label: str
    results: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"n": self.n, "basis": self.basis_label,
                "results": [dict(r) for r in self.results]}

    def to_csv(self) -> str:
        lines = ["t,choi_min,symmetry_err,conservative_err,markov_min,markov_max"]
        for r in self.results:
            lines.append(f"{r['t']!r},{r['choi_min_eigenvalue']!r},"
                         f"{r['symmetry_error']!r},{r['conservativity_error']!r},"
                         f"{r['markov_min']!r},{r['markov_max']!r}")
        return "\n".join(lines) + "\n"


def _random_unit_interval_operators(n: int, samples: int, rng) -> np.ndarray:
    """Stack of random Hermitian matrices with spectrum inside [0, 1]."""
    X = rng.standard_normal((samples, 2, n, n))
    X = X[:, 0] + 1j * X[:, 1]
    H = X + X.conj().swapaxes(1, 2)
    lam = np.linalg.eigvalsh(H)
    lo, hi = lam[:, :1, None], lam[:, -1:, None]
    flat = hi - lo < 1e-12
    eye = np.eye(n)
    return np.where(flat, 0.5 * eye, (H - lo * eye) / np.where(flat, 1.0, hi - lo))


def audit_semigroup(ts: Sequence[float], n: int, basis: DifferentialBasis,
                    samples: int = 100, seed: int = 7) -> SemigroupAudit:
    """Run the complete-positivity / symmetry / conservativity / Markov checks.

    The channel is applied as the Schur multiplier exp(-t W) in the basis's
    joint eigenbasis, and the symbol is computed once for all times.  The
    Choi matrix is unitarily similar (via conj(Q) (x) Q) to the symbol on
    span{e_i (x) e_i} plus a zero block of size n^2 - n, so its least
    eigenvalue is read off the n x n symbol.
    """
    ts = list(ts)
    if not ts:
        raise ValueError("need at least one time")
    for t in ts:
        _check_time(t)
    if samples < 1:
        raise ValueError("need at least one sample")
    Q, W = _heat_symbol(basis, n)
    rng = np.random.default_rng(seed)
    audit = SemigroupAudit(n=n, basis_label=basis.label)
    # one batched draw gives the same samples as drawing pair by pair
    draws = rng.standard_normal((samples, 4, n, n))
    A = draws[:, 0] + 1j * draws[:, 1]
    B = draws[:, 2] + 1j * draws[:, 3]
    interval_ops = _random_unit_interval_operators(n, samples, rng)
    eye = np.eye(n)
    for t in ts:
        M = np.exp(-t * W)
        choi_min = float(np.linalg.eigvalsh(M)[0])
        if n >= 2:
            choi_min = min(choi_min, 0.0)
        # tau-symmetry tr(Phi(a) b) = tr(a Phi(b)) over the random pairs
        sym = np.abs(np.einsum("kij,kji->k", _schur_heat(Q, M, A), B)
                     - np.einsum("kij,kji->k", A, _schur_heat(Q, M, B))).max() / n
        cons = float(np.abs(_schur_heat(Q, M, eye) - eye).max())
        F = _schur_heat(Q, M, interval_ops)
        lam = np.linalg.eigvalsh(0.5 * (F + F.conj().swapaxes(1, 2)))
        mk_min, mk_max = float(lam[:, 0].min()), float(lam[:, -1].max())
        audit.results.append({
            "t": t,
            "choi_min_eigenvalue": choi_min,
            "symmetry_error": float(sym),
            "conservativity_error": cons,
            "markov_min": mk_min,
            "markov_max": mk_max,
        })
    return audit


def trotter_check(t: float, steps: int, n: int, basis: DifferentialBasis) -> float:
    """Splitting error |(e^{(t/m)K1} e^{(t/m)K2})^m - e^{-t Delta}|_2.

    K1 is the conjugation part sum (U^* a U + U a U^*), K2 the
    anticommutator with A = -sum U^* U; -Delta = K1 + K2 for a normal basis.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    K1 = np.zeros((n * n, n * n), dtype=complex)
    A = np.zeros((n, n), dtype=complex)
    for X in _basis_mats(basis, n):
        Xs = X.conj().T
        K1 += np.kron(Xs, X.T) + np.kron(X, Xs.T)
        A -= Xs @ X
    K2 = _left_mul(A, n) + _right_mul(A, n)
    h = t / steps
    step = scipy.linalg.expm(h * K1) @ scipy.linalg.expm(h * K2)
    approx = np.linalg.matrix_power(step, steps)
    exact = scipy.linalg.expm(t * (K1 + K2))
    return float(np.linalg.norm(approx - exact, 2))


# -- first-order / carre du champ identities --------------------------------

def carre_du_champ(a, c, basis: DifferentialBasis):
    """Algebra-valued form a^* Delta(c) + Delta(a^*) c - Delta(a^* c)."""
    astar = a.adjoint()
    return (astar * laplacian(c, basis) + laplacian(astar, basis) * c
            - laplacian(astar * c, basis))


def carre_du_champ_first_order(a, c, basis: DifferentialBasis):
    """sum_j ([c_j U_j, a]^* [c_j U_j, c] + [(c_j U_j)^*, a]^* [(c_j U_j)^*, c]).

    Equals :func:`carre_du_champ` exactly; in self-adjoint mode the two
    halves coincide and the sum doubles accordingly.
    """
    out = None
    for x, xs in zip(basis.scaled, basis.scaled_star):
        term = commutator(x, a).adjoint() * commutator(x, c) \
            + commutator(xs, a).adjoint() * commutator(xs, c)
        out = term if out is None else out + term
    return out


def dirichlet_form(a, b, basis: DifferentialBasis, trace_fn=None):
    """Quadratic form of the generator, reported both ways.

    Returns ``(generator_side, delta_side)`` where generator_side is
    tau(a^* Delta b) and delta_side is the trace of the first-order pairing
    over the covectors the mode actually has: both halves in complex mode
    (twice the generator side for a commuting normal basis), the unstarred
    half alone in self-adjoint mode (equal to the generator side).
    """
    tr = trace_fn or default_trace
    generator_side = tr(a.adjoint() * laplacian(b, basis))
    pairing = None
    for x, xs in zip(basis.scaled, basis.scaled_star):
        term = commutator(x, a).adjoint() * commutator(x, b)
        if basis.mode == "complex":
            term = term + commutator(xs, a).adjoint() * commutator(xs, b)
        pairing = term if pairing is None else pairing + term
    return generator_side, tr(pairing)


def locality_isometry(a, b, basis: DifferentialBasis) -> tuple:
    """Image of a (x) b under W: the 2n-tuple ([c_j U_j, a] b, [(c_j U_j)^*, a] b)."""
    if basis.mode != "complex":
        raise BasisModeError("locality isometry needs complex mode")
    head = tuple(commutator(x, a) * b for x in basis.scaled)
    tail = tuple(commutator(xs, a) * b for xs in basis.scaled_star)
    return head + tail


def isometry_check(a, b, c, d, basis: DifferentialBasis) -> float:
    """Defect of W as an inner-product-preserving map on simple tensors.

    Compares b^* carre(a, c) d with the componentwise pairing of W(a (x) b)
    and W(c (x) d); returns the carrier norm of the difference.
    """
    lhs = b.adjoint() * carre_du_champ(a, c, basis) * d
    wab = locality_isometry(a, b, basis)
    wcd = locality_isometry(c, d, basis)
    rhs = None
    for u, v in zip(wab, wcd):
        term = u.adjoint() * v
        rhs = term if rhs is None else rhs + term
    return (lhs - rhs).norm()
