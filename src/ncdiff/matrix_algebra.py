"""Dense complex matrix carrier, projection basis, joint eigenbases, families and their actions."""

from __future__ import annotations

import functools

import numpy as np

from .carrier import EQ_TOLERANCE, Normed, _KeyedBasis


class MatElement(Normed):
    """Immutable square complex matrix with carrier-algebra operations."""

    __slots__ = ("mat",)
    parent_name = "matrix dimension"

    def __init__(self, mat):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isfinite(m).all():  # a complex entry is finite when both parts are
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        self.mat = m

    @classmethod
    def _trusted(cls, m: np.ndarray) -> "MatElement":
        """The element holding ``m`` itself, a square complex array checked finite."""
        x = object.__new__(cls)
        m.setflags(write=False)
        x.mat = m
        return x

    def __reduce__(self):
        # rebuilt through __init__, so the unpickled matrix is read-only too
        return MatElement, (self.mat,)

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
        if self.mat.shape != other.mat.shape:
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

    def __truediv__(self, c: float) -> "MatElement":
        """Each part of each entry divided by the real c."""
        return MatElement(self.mat.real / c + 1j * (self.mat.imag / c))

    def __mul__(self, other):
        if isinstance(other, MatElement):
            self._check(other)
            return MatElement(self.mat @ other.mat)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def keyed(self):
        """Every matrix unit e_ab, keyed by its flat index a n + b (the shared
        array of :func:`_unit_keys`), and the entries."""
        return _unit_keys(self.n), self.mat.reshape(-1)

    def _from_keys(self, flat, coeffs) -> "MatElement":
        if flat is _unit_keys(self.n):  # every unit in order: coeffs is the matrix
            return MatElement(np.reshape(coeffs, (self.n, self.n)))
        m = np.zeros(self.n * self.n, dtype=complex)
        m[flat] = coeffs
        return MatElement(m.reshape(self.n, self.n))

    def _add_raw(self, acc, w, sign: int):
        """Flat entries: ``acc`` plus ``sign`` w, a new row of weights, used once."""
        if acc is None:
            return w if sign > 0 else np.negative(w, out=w)
        return (np.add if sign > 0 else np.subtract)(acc, w, out=acc)  # x - y is x + (-y)

    def _from_raw(self, flat):
        return MatElement(flat.reshape(self.mat.shape)) if np.count_nonzero(flat) else None

    @classmethod
    def family_ad(cls, family: list, actions: list):
        """For a diagonal family: each slot's held action on the flat entries of
        ``a``, read once.  None for any other family."""
        x = family[0]

        def hook(a):
            if isinstance(a, MatElement):
                x._check(a)
                k = a.keyed()
                return [act(*k)[1] for act in actions]
        return None if None in actions else hook

    def diagonal_action(self):
        """For diag(d): the unit with flat index a n + b stays put with weight
        d(a) - d(b) (nan where that overflows), computed once for all units.
        None for any other matrix."""
        d = np.diag(self.mat)
        if (self.mat - np.diag(d)).any():
            return None
        return _diagonal_actions(d[None])[0]

    def adjoint(self) -> "MatElement":
        return MatElement(self.mat.conj().T)

    def norm(self) -> float:
        """Largest entry modulus."""
        return float(np.abs(self.mat).max()) if self.n else 0.0

    def __repr__(self):
        return f"MatElement(n={self.n})"


class MatrixCarrierBasis(_KeyedBasis):
    """Matrix units of M_n as carrier coordinates, keyed by the flat index i n + j."""

    def __init__(self, n: int):
        self.n = n = self._checked_size(n, "n")
        self.description = f"M_{n} matrix units"
        super().__init__(MatElement.zero(n), _unit_keys(n))

    def _rows(self, flat: np.ndarray) -> np.ndarray:
        return np.where((flat >= 0) & (flat < len(self.keys)), flat, -1)


@functools.cache
def _unit_keys(n: int) -> np.ndarray:
    """The flat indices 0..n^2 - 1 of the matrix units of M_n, one read-only
    array per n."""
    flat = np.arange(n * n)
    flat.setflags(write=False)
    return flat


def _diagonal_actions(D: np.ndarray) -> list:
    """The ``diagonal_action`` of diag(D[j]), for each row j of the k x n array D:
    the unit e_ab weighs d(a) - d(b)."""
    k, n = D.shape
    with np.errstate(over="ignore", invalid="ignore"):
        W = (D[:, :, None] - D[:, None, :]).reshape(k, n * n)
        # a difference overflows only where 2 D does; as a quiet nan it weighs without
        # a warning, and ad's result then fails the constructor's finiteness check
        if not np.isfinite(2 * D).all():
            W[~np.isfinite(W)] = np.nan
    units = _unit_keys(n)
    return [lambda flat, coeffs, w=w: (flat, (w if flat is units else w[flat]) * coeffs)
            for w in W]


def scaled_family(mats: list, prefactors: list) -> tuple:
    """``(scaled, scaled_star, ad, ad_star, held)`` of square arrays X_j and
    scalars c_j: the elements c_j X_j, their adjoints and ``ad`` maps, bit for
    bit as ``c * MatElement(X)`` gives them, without copies.  A diagonal family
    of one dimension is read from its diagonals: ``held`` is |c_j X_j|, the
    defects |Y - Y^*| of Y = X_j / |X_j| and the diagonals; None for any other family."""
    k, n = len(mats), mats[0].shape[0]
    with np.errstate(all="ignore"):  # a non-finite result raises below or in the caller
        products = [complex(c) * m for c, m in zip(prefactors, mats)]
        if all(m.shape[0] == n and np.count_nonzero(m) == np.count_nonzero(m.diagonal())
               for m in mats):
            diagonals = [m.diagonal() for m in mats]
            D, Ds = np.array(diagonals), np.array([x.diagonal() for x in products])
            finite = np.isfinite(Ds).all()  # c 0 off the diagonal is finite when c d is
            norms, sizes = (np.abs(A).max(axis=1, initial=0.0) for A in (Ds, D))
            inverse = np.divide(1.0, sizes, out=np.zeros(k), where=sizes > 0)[:, None]
            # Y - Y^* is 2i Im(Y) on the diagonal, and 0 off it; Y divides
            # where 1 / |X_j| overflows, as forms._unit does
            Y = np.where(inverse == np.inf, D.imag / sizes[:, None], inverse * D.imag)
            held = norms, 2 * np.abs(Y).max(axis=1, initial=0.0), diagonals
            actions = [_diagonal_actions(Ds), _diagonal_actions(Ds.conj())]
        else:
            held, actions = None, [[None] * k] * 2
            finite = all(np.isfinite(x).all() for x in products)
    if not finite:
        raise ValueError("matrix entries must be finite")
    scaled = [MatElement._trusted(x) for x in products]
    stars = [MatElement._trusted(x.conj().T) for x in products]
    return (scaled, stars, [x.ad(a) for x, a in zip(scaled, actions[0])],
            [x.ad(a) for x, a in zip(stars, actions[1])], held)


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
    the tolerance count as degenerate).  A part with Frobenius norm <= tol/2,
    such as the rounding-level i(X - X^*) of a self-adjoint X, has every
    eigenvalue within +-tol/2, cannot split an eigenspace, and is skipped.
    """
    if not any((X - np.diag(np.diag(X))).any() for X in mats):
        return None, [np.diag(X) for X in mats]
    tols = [EQ_TOLERANCE * max(1.0, np.abs(X).max()) for X in mats]
    blocks = [np.eye(len(mats[0]), dtype=complex)]  # bases of the eigenspaces so far
    for X, tol in zip(mats, tols):
        for part in (X + X.conj().T, 1j * (X - X.conj().T)):
            if np.linalg.norm(part) <= tol / 2:
                continue
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
