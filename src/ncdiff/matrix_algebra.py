"""Dense complex matrix carrier with the diagonal-projection differential basis."""

from __future__ import annotations

import numpy as np

from .carrier import Normed


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
