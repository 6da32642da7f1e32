"""Exact symbolic arithmetic in algebras of q-commuting unitaries.

An algebra is presented by m unitary generators ``U_1 .. U_m`` subject to

    U_k U_j = exp(i * theta[j, k]) * U_j U_k

for a fixed real skew-symmetric matrix of structure angles.  Elements are
finite complex combinations of normal-ordered monomials
``U_1^{e_1} ... U_m^{e_m}`` with integer exponents; a negative exponent is a
power of the adjoint, so every element stays a finite Laurent combination.
This single presentation covers rotation algebras (quantum tori), Weyl
exponentials restricted to an integer lattice, and the three-generator
presentation of the quantum Heisenberg von Neumann algebra.

Multiplication accumulates exchange phases as floating-point angles and
exponentiates once per term pair; coefficients with modulus at or below the
spec's ``prune_epsilon`` are dropped.  A product has two routes.  Up to
``_ARRAY_PAIRS`` term pairs, a Python loop takes the pairs one by one
(:func:`_pair_product`).  Above that cut, :func:`_array_product` forms the
same angles on the whole grid of term pairs in numpy, chunk by chunk of rows,
and sums coefficients by exponent code.  The cut sits above the measured
crossover (near 7 x 7 terms), so the many short products of the CLI and of
cohomology assembly never pay numpy's fixed cost.  The loop is the oracle
that the tests hold the array route to.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .carrier import PRUNE_EPSILON, Terms

Monomial = tuple  # exponent tuple (e_1, ..., e_m)


class SpecMismatchError(ValueError):
    """Raised when two elements over different presentations are combined."""


class QAlgebraSpec:
    """Presentation of an algebra on q-commuting unitary generators.

    Parameters
    ----------
    theta:
        Real m x m skew-symmetric matrix of relation angles, radians.
    label:
        Free-form description used in reports.
    meta:
        Optional auxiliary scalars (deformation parameters and friends);
        not part of the relations.
    prune_epsilon:
        Coefficients with modulus <= this are dropped from elements.
    """

    __slots__ = ("theta", "label", "meta", "prune_epsilon", "_pairs")

    def __init__(self, theta, label: str = "", meta: Mapping | None = None,
                 prune_epsilon: float = PRUNE_EPSILON):
        th = np.array(theta, dtype=float)
        if th.ndim != 2 or th.shape[0] != th.shape[1]:
            raise ValueError("structure angle matrix must be square")
        m = th.shape[0]
        if m < 1:
            raise ValueError("need at least one generator")
        if not np.isfinite(th).all():
            raise ValueError("structure angles must be finite")
        if not np.allclose(th, -th.T, atol=1e-12):
            raise ValueError("structure angle matrix must be skew-symmetric")
        np.fill_diagonal(th, 0.0)
        th.setflags(write=False)
        self.theta = th
        self.label = label
        self.meta = dict(meta or {})
        self.prune_epsilon = float(prune_epsilon)
        # nonzero strict-upper entries drive every phase computation
        self._pairs = tuple((j, k, th[j, k]) for j in range(m)
                            for k in range(j + 1, m) if th[j, k] != 0.0)

    @property
    def generator_count(self) -> int:
        return self.theta.shape[0]

    def same_as(self, other: "QAlgebraSpec") -> bool:
        return self is other or (
            isinstance(other, QAlgebraSpec)
            and self.theta.shape == other.theta.shape
            and np.array_equal(self.theta, other.theta))

    def __repr__(self):
        return f"QAlgebraSpec(m={self.generator_count}, label={self.label!r})"


def _mul_angle(spec: QAlgebraSpec, e: Monomial, f: Monomial) -> float:
    """Exchange angle picked up normal-ordering the product U^e * U^f."""
    return sum(t * e[k] * f[j] for j, k, t in spec._pairs)


def _adjoint_angle(spec: QAlgebraSpec, e: Monomial) -> float:
    """Exchange angle picked up normal-ordering (U^e)^* = U_m^{-e_m}..U_1^{-e_1}."""
    return sum(t * e[j] * e[k] for j, k, t in spec._pairs)


# Products with more term pairs than this take the array route.
_ARRAY_PAIRS = 256
# Term pairs per chunk of the array route (a chunk is whole rows of the grid).
_CHUNK_PAIRS = 4096
# Largest exponent box whose coefficient sums are kept in dense bins.
_DENSE_BINS = 4 * _CHUNK_PAIRS
# Exponents of the array route stay below this in modulus, so a sum of two fits in int64.
_EXPONENT_LIMIT = 2 ** 62


def _pair_product(spec: QAlgebraSpec, ta: dict, tb: dict) -> dict:
    """Unpruned terms of the product, one term pair at a time."""
    out: dict = {}
    for e, ca in ta.items():
        for f, cb in tb.items():
            ang = _mul_angle(spec, e, f)
            c = ca * cb
            if ang != 0.0:
                c *= cmath.exp(1j * ang)
            g = tuple(x + y for x, y in zip(e, f))
            out[g] = out.get(g, 0j) + c
    return out


def _exponent_rows(terms: dict, m: int):
    """Exponents as an int64 array, or None when one is too large for the array route."""
    try:
        rows = np.fromiter(itertools.chain.from_iterable(terms), np.int64,
                           len(terms) * m).reshape(len(terms), m)
    except OverflowError:
        return None
    return rows if -_EXPONENT_LIMIT < rows.min() and rows.max() < _EXPONENT_LIMIT else None


def _sum_by_code(codes: np.ndarray, c: np.ndarray):
    """Distinct codes and the sum of ``c`` over each."""
    u, inv = np.unique(codes, return_inverse=True)
    inv = inv.ravel()  # numpy 2.0 may return it shaped
    n = len(u)
    return u, np.bincount(inv, c.real, n) + 1j * np.bincount(inv, c.imag, n)


def _array_product(spec: QAlgebraSpec, ta: dict, tb: dict) -> "QElement":
    """The product of two term dicts on the grid of term pairs, in numpy.

    Angles take the association of :func:`_mul_angle`, and a phase is
    applied only where the angle is nonzero, as in :func:`_pair_product`.
    Each product exponent is coded in mixed radix over its box
    ``[min E + min F, max E + max F]``.  A box of at most ``_DENSE_BINS``
    codes sums with ``np.bincount`` into dense bins.  A wider box sorts the
    codes chunk by chunk.  A box with more codes than int64 holds, or an
    exponent of 2**62 or more, goes to the pair loop.
    """
    out = QElement(spec)
    if not ta or not tb:
        return out
    m = spec.generator_count
    E, F = _exponent_rows(ta, m), _exponent_rows(tb, m)
    if E is None or F is None:
        return out._like(_pair_product(spec, ta, tb))
    loE, loF = E.min(0), F.min(0)
    ext = [a + b + 1 for a, b in zip((E.max(0) - loE).tolist(), (F.max(0) - loF).tolist())]
    size = math.prod(ext)
    if size >= 2 ** 63:
        return out._like(_pair_product(spec, ta, tb))
    ca = np.fromiter(ta.values(), complex, len(ta))
    cb = np.fromiter(tb.values(), complex, len(tb))
    stride = np.array([math.prod(ext[k + 1:]) for k in range(m)], dtype=np.int64)
    codeE, codeF = (E - loE) @ stride, (F - loF) @ stride
    dense = size <= _DENSE_BINS
    if dense:
        re, im, hit = np.zeros(size), np.zeros(size), np.zeros(size, dtype=bool)
    else:
        parts = []
    phases = [(t * E[:, k], F[:, j].astype(float)) for j, k, t in spec._pairs]
    step = max(1, _CHUNK_PAIRS // len(tb))
    for r0 in range(0, len(ta), step):
        rows = slice(r0, r0 + step)
        c = np.multiply.outer(ca[rows], cb)
        if phases:
            ang = sum(np.multiply.outer(te[rows], f) for te, f in phases)
            np.multiply(c, np.exp(1j * ang), out=c, where=ang != 0.0)
        c = c.ravel()
        keys = np.add.outer(codeE[rows], codeF).ravel()
        if dense:
            re += np.bincount(keys, c.real, size)
            im += np.bincount(keys, c.imag, size)
            hit[keys] = True
        else:
            parts.append(_sum_by_code(keys, c))
    if dense:
        keys = np.flatnonzero(hit)
        vals = re[keys] + 1j * im[keys]
    else:
        keys, vals = _sum_by_code(np.concatenate([k for k, _ in parts]),
                                  np.concatenate([v for _, v in parts]))
    keep = ~(np.abs(vals) <= spec.prune_epsilon)  # keeps a nan
    cols = [u + l for u, l in zip(np.unravel_index(keys[keep], ext), loE + loF)]
    out.terms = dict(zip(zip(*[col.tolist() for col in cols]), vals[keep].tolist()))
    return out


class QElement(Terms):
    """Finite complex combination of normal-ordered monomials.

    Immutable; all operations return new elements.  Use ``QElement.monomial``
    or :func:`normal_order` to construct non-trivial elements.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: QAlgebraSpec, terms: Mapping[Monomial, complex] | None = None):
        m = spec.generator_count
        eps = spec.prune_epsilon
        tt = {}
        for mono, c in (terms or {}).items():
            if len(mono) != m:
                raise ValueError(f"monomial {mono} has wrong arity for {m} generators")
            c = complex(c)
            if not abs(c) <= eps:  # keeps a nan for the finiteness checks
                tt[tuple(int(x) for x in mono)] = c
        self.spec = spec
        self.terms = tt

    def _like(self, terms: dict) -> "QElement":
        """Element over the same presentation: terms already canonical, only prunes."""
        out = object.__new__(QElement)
        out.spec = self.spec
        eps = self.spec.prune_epsilon
        out.terms = {e: c for e, c in terms.items() if not abs(c) <= eps}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, spec) -> "QElement":
        return cls(spec, {})

    @classmethod
    def one(cls, spec) -> "QElement":
        return cls(spec, {(0,) * spec.generator_count: 1.0})

    @classmethod
    def monomial(cls, spec, exponents: Sequence[int], coeff: complex = 1.0) -> "QElement":
        return cls(spec, {tuple(exponents): coeff})

    @classmethod
    def generator(cls, spec, index: int) -> "QElement":
        """Generator U_index, index in 1..m."""
        m = spec.generator_count
        if not 1 <= index <= m:
            raise ValueError(f"generator index {index} out of range 1..{m}")
        e = [0] * m
        e[index - 1] = 1
        return cls(spec, {tuple(e): 1.0})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "QElement"):
        if not self.spec.same_as(other.spec):
            raise SpecMismatchError("elements live over different presentations")

    def __mul__(self, other):
        if isinstance(other, QElement):
            self._check(other)
            if len(self.terms) * len(other.terms) > _ARRAY_PAIRS:
                return _array_product(self.spec, self.terms, other.terms)
            return self._like(_pair_product(self.spec, self.terms, other.terms))
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def adjoint(self) -> "QElement":
        out = {}
        for e, c in self.terms.items():
            ang = _adjoint_angle(self.spec, e)
            v = c.conjugate()
            if ang != 0.0:
                v *= cmath.exp(1j * ang)
            out[tuple(-x for x in e)] = v
        return self._like(out)

    # -- queries -----------------------------------------------------------

    def coefficient(self, exponents: Sequence[int]) -> complex:
        return self.terms.get(tuple(exponents), 0j)

    def __repr__(self):
        if not self.terms:
            return "QElement(0)"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "".join(f"U{j + 1}^{x}" for j, x in enumerate(e) if x != 0) or "1"
            parts.append(f"({c:.6g})*{mono}")
        return "QElement(" + " + ".join(parts) + ")"


# -- presentation builders -------------------------------------------------

def torus_spec(theta: float, label: str | None = None) -> QAlgebraSpec:
    """Two-generator rotation algebra with U V = exp(i theta) V U."""
    th = [[0.0, -theta], [theta, 0.0]]
    return QAlgebraSpec(th, label=label or f"torus(theta={theta})",
                        meta={"theta": theta})


def torus_spec_2n(thetas: Sequence[float], label: str | None = None) -> QAlgebraSpec:
    """2n generators in commuting pairs: U_{2j-1} U_{2j} = exp(i theta_j) U_{2j} U_{2j-1}."""
    n = len(thetas)
    if n < 1:
        raise ValueError("need at least one generator pair")
    m = 2 * n
    th = np.zeros((m, m))
    for p, t in enumerate(thetas):
        th[2 * p, 2 * p + 1] = -t
        th[2 * p + 1, 2 * p] = t
    return QAlgebraSpec(th, label=label or f"torus2n(thetas={list(thetas)})",
                        meta={"thetas": list(thetas)})


def weyl_lattice_spec(hbar: float, pairs: int = 1, step: float = 1.0,
                      label: str | None = None) -> QAlgebraSpec:
    """Weyl exponentials exp(i*step*P_j), exp(i*step*Q_j) on an integer lattice.

    Generator 2j-1 is the momentum-direction unitary, generator 2j the
    position-direction one; each canonical pair contributes the exchange
    angle hbar*step^2, all other pairs commute.
    """
    if step <= 0:
        raise ValueError("lattice step must be positive")
    spec = torus_spec_2n([hbar * step * step] * pairs,
                         label=label or f"weyl(hbar={hbar}, pairs={pairs}, step={step})")
    spec.meta.update({"hbar": hbar, "step": step, "pairs": pairs})
    return spec


def heisenberg_spec(mu: float, nu: float, hbar: float = 1.0, c: float = 1.0,
                    label: str | None = None) -> QAlgebraSpec:
    """Three unitaries U, V, W with U V = V U, U W = exp(-4 pi i mu hbar) W U,
    V W = exp(-4 pi i nu hbar) W V.

    ``hbar`` rescales mu and nu so the family sweeps to the commutative
    algebra as hbar -> 0; ``c`` is the integer-like structure constant used
    by the canonical derivations, it does not enter the relations.
    """
    a = 4.0 * math.pi * mu * hbar
    b = 4.0 * math.pi * nu * hbar
    th = [[0.0, 0.0, a],
          [0.0, 0.0, b],
          [-a, -b, 0.0]]
    return QAlgebraSpec(th, label=label or f"heisenberg(mu={mu}, nu={nu}, hbar={hbar})",
                        meta={"mu": mu, "nu": nu, "hbar": hbar, "c": c})


# -- operations ------------------------------------------------------------

def normal_order(spec: QAlgebraSpec, word: Iterable[tuple[int, int]]) -> QElement:
    """Normal-order a word of generator letters.

    ``word`` is a sequence of ``(index, exponent)`` pairs with index in 1..m;
    exponent is a nonzero integer (+-1 for plain letters and adjoints).
    Returns the single-monomial element equal to the word under the
    relations, with the accumulated exchange phase as its coefficient.
    """
    m = spec.generator_count
    acc = QElement.one(spec)
    for index, power in word:
        if not 1 <= index <= m:
            raise ValueError(f"generator index {index} out of range 1..{m}")
        if power == 0:
            continue
        e = [0] * m
        e[index - 1] = int(power)
        acc = acc * QElement.monomial(spec, e)
    return acc


def theta_hat(s: float, t: float, a: QElement) -> QElement:
    """Torus translation automorphism: U^k V^l -> exp(-i(s k + t l)) U^k V^l.

    Defined for two-generator presentations only.
    """
    if a.spec.generator_count != 2:
        raise ValueError("theta_hat needs a two-generator presentation")
    out = {e: c * cmath.exp(-1j * (s * e[0] + t * e[1]))
           for e, c in a.terms.items()}
    return a._like(out)


def tau(a: QElement) -> complex:
    """Tracial state: the coefficient of the identity monomial."""
    return a.terms.get((0,) * a.spec.generator_count, 0j)


def inner(a: QElement, b: QElement) -> complex:
    """GNS inner product tau(a^* b); monomials are orthonormal."""
    return tau(a.adjoint() * b)


def clock_shift_rep(spec: QAlgebraSpec, a: QElement, tol: float = 1e-9,
                    max_denominator: int = 10_000):
    """Finite-dimensional image of a two-generator torus element.

    For theta a rational multiple 2*pi*p/q of the full angle, U maps to the
    q x q clock matrix diag(1, w, ..., w^{q-1}) with w = exp(i theta) and V
    to the cyclic shift, so the images satisfy U V = exp(i theta) V U.
    Returns a dense ``MatElement``.

    Raises ``ValueError`` when theta is not a rational multiple of 2*pi
    within ``tol``.
    """
    from .matrix_algebra import MatElement

    if spec.generator_count != 2:
        raise ValueError("clock/shift image needs a two-generator presentation")
    theta = spec.theta[1, 0]
    x = theta / (2.0 * math.pi)
    frac = Fraction(x).limit_denominator(max_denominator)
    if abs(x - float(frac)) > tol:
        raise ValueError(f"theta={theta} is not a rational multiple of 2*pi within {tol}")
    q = frac.denominator
    w = cmath.exp(1j * theta)
    clock = np.diag([w ** j for j in range(q)]).astype(complex)
    shift = np.zeros((q, q), dtype=complex)
    for j in range(q):
        shift[(j + 1) % q, j] = 1.0
    out = np.zeros((q, q), dtype=complex)
    for (e1, e2), c in a.terms.items():
        cu = np.linalg.matrix_power(clock, e1) if e1 >= 0 else \
            np.linalg.matrix_power(clock.conj().T, -e1)
        sv = np.linalg.matrix_power(shift, e2) if e2 >= 0 else \
            np.linalg.matrix_power(shift.conj().T, -e2)
        out += c * (cu @ sv)
    return MatElement(out)


# -- serialization ---------------------------------------------------------

def spec_to_json(spec: QAlgebraSpec) -> dict:
    d = {"generators": spec.generator_count,
         "theta_matrix": spec.theta.tolist(),
         "label": spec.label}
    if spec.meta:
        d["meta"] = dict(spec.meta)
    return d


def spec_from_json(d: Mapping) -> QAlgebraSpec:
    if not isinstance(d, Mapping) or "theta_matrix" not in d:
        raise ValueError("presentation needs a theta_matrix")
    try:
        th = np.array(d["theta_matrix"], dtype=float)
    except TypeError:
        raise ValueError("theta_matrix must be a matrix of numbers") from None
    if th.ndim != 2:
        raise ValueError("theta_matrix must be a square matrix")
    if th.shape[0] != d.get("generators", th.shape[0]):
        raise ValueError("generator count disagrees with theta matrix shape")
    meta = d.get("meta")
    if meta is not None and not isinstance(meta, Mapping):
        raise ValueError("presentation meta must be a JSON object")
    return QAlgebraSpec(th, label=d.get("label", ""), meta=meta)


def element_to_json(a: QElement) -> list:
    return [{"exponents": list(e), "re": a.terms[e].real, "im": a.terms[e].imag}
            for e in sorted(a.terms)]


def element_from_json(spec: QAlgebraSpec, items: Iterable[Mapping]) -> QElement:
    terms: dict = {}
    for it in items:
        e = tuple(int(x) for x in it["exponents"])
        terms[e] = terms.get(e, 0j) + complex(it["re"], it["im"])
    return QElement(spec, terms)
