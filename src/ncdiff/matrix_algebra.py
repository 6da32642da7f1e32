"""Dense complex matrix carrier, its diagonal-projection basis and joint eigenbases."""

from __future__ import annotations

import numpy as np

from .carrier import EQ_TOLERANCE, Normed


class MatElement(Normed):
    """Immutable square complex matrix with carrier-algebra operations."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        self.mat = m

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, n: int) -> "MatElement":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def zero(cls, n: int) -> "MatElement":
        return cls(np.zeros((n, n), dtype=complex))

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "MatElement":
        """Matrix unit e_{ij} (0-based indices)."""
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1.0
        return cls(m)

    def _check(self, other: "MatElement"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, MatElement):
            return NotImplemented
        self._check(other)
        return MatElement(self.mat + other.mat)

    def __sub__(self, other):
        if not isinstance(other, MatElement):
            return NotImplemented
        self._check(other)
        return MatElement(self.mat - other.mat)

    def __neg__(self):
        return MatElement(-self.mat)

    def scale(self, c: complex) -> "MatElement":
        return MatElement(complex(c) * self.mat)

    def __mul__(self, other):
        if isinstance(other, MatElement):
            self._check(other)
            return MatElement(self.mat @ other.mat)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def adjoint(self) -> "MatElement":
        return MatElement(self.mat.conj().T)

    def norm(self) -> float:
        """Largest entry modulus."""
        return float(np.abs(self.mat).max()) if self.n else 0.0

    def __repr__(self):
        return f"MatElement(n={self.n})"


def projection_basis(n: int) -> list[MatElement]:
    """Rank-one diagonal projections p_1..p_n; mutually orthogonal, sum = 1."""
    if n < 2:
        raise ValueError("projection basis needs n >= 2")
    return [MatElement.unit(n, j, j) for j in range(n)]


def joint_eigenbasis(mats: list[np.ndarray]):
    """Common unitary eigenbasis of commuting normal matrices X_j.

    ``(Q, [lambda_j])`` with every Q^* X_j Q = diag(lambda_j) within
    EQ_TOLERANCE * max(1, |X_j|_max), or None when there is none; Q is None
    when every X_j is diagonal, which keeps them bit-exact.  The Hermitian
    parts X + X^* and i(X - X^*) are diagonalized in turn, each only inside
    the eigenspaces the earlier parts left degenerate (eigenvalue gaps within
    the tolerance count as degenerate).
    """
    if not any((X - np.diag(np.diag(X))).any() for X in mats):
        return None, [np.diag(X) for X in mats]
    tols = [EQ_TOLERANCE * max(1.0, np.abs(X).max()) for X in mats]
    blocks = [np.eye(len(mats[0]), dtype=complex)]  # bases of the eigenspaces so far
    for X, tol in zip(mats, tols):
        for part in (X + X.conj().T, 1j * (X - X.conj().T)):
            refined = []
            for B in blocks:
                if B.shape[1] > 1:
                    lam, V = np.linalg.eigh(B.conj().T @ part @ B)
                    refined += np.split(B @ V, np.flatnonzero(np.diff(lam) > tol) + 1, axis=1)
                else:
                    refined.append(B)
            blocks = refined
    Q = np.hstack(blocks)
    Ys = [Q.conj().T @ X @ Q for X in mats]
    if any(np.abs(Y - np.diag(np.diag(Y))).max() > tol for Y, tol in zip(Ys, tols)):
        return None
    return Q, [np.diag(Y) for Y in Ys]


def trace(a: MatElement, normalized: bool = True) -> complex:
    t = complex(np.trace(a.mat))
    return t / a.n if normalized else t


def offdiag(a: MatElement) -> MatElement:
    """Zero out the diagonal; idempotent."""
    m = a.mat.copy()
    np.fill_diagonal(m, 0.0)
    return MatElement(m)


def mat_to_json(a: MatElement) -> dict:
    return {"n": a.n,
            "rows": [[[z.real, z.imag] for z in row] for row in a.mat]}


def mat_from_json(d) -> MatElement:
    n = int(d["n"])
    m = np.array([[complex(re, im) for re, im in row] for row in d["rows"]])
    if m.shape != (n, n):
        raise ValueError("rows disagree with declared dimension")
    return MatElement(m)
