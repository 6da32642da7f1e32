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

An element is a term carrier (:class:`~ncdiff.carrier.HeldTerms`): it
holds its terms as a dict, as int64 exponent rows with complex coefficients
(``QElement.keyed``), or both.  This module states the algebra and the
coding; exponents of 2**62 or more are held only as dicts and always take
the loops.

Products, adjoints and commutators multiply by exchange phases exp(i * angle)
whose floating-point angles all come from one function, :func:`_angle`; the
adjoint of U^e takes minus the angle of U^e U^{-e}, so monomials stay unitary
at every exponent.  Coefficients with modulus at or below the spec's
``prune_epsilon`` are dropped.  A product has two routes.  Up to
``_ARRAY_PAIRS`` term pairs, a Python loop takes the pairs one by one
(:func:`_pair_product`).  Above that cut, :func:`_array_product` forms the
same angles on the whole grid of term pairs in numpy, chunk by chunk of rows,
and sums coefficients by exponent code (:func:`_pair_sums`, whose pass the
carre du champ of :mod:`ncdiff.dirichlet` shares).  An angle reads only the
exponent columns named in the spec's pairs, so a product of more than one
chunk exponentiates once per pair of exponent classes when there are at most
a chunk's worth of them (:func:`_phase_table`), to the same doubles; other
products call ``np.exp`` per chunk.  The cut sits above the measured
crossover (near 7 x 7 terms), so the many short products of the CLI and of
cohomology assembly never pay numpy's fixed cost.  The loop is the oracle
that the tests hold the array route to.

A single monomial c U^g acts by ``QElement.ad``: the commutator [c U^g, a]
multiplies each term a_e U^e by c (exp(i phi_1) - exp(i phi_2)), with the
angles phi_1 of U^g U^e and phi_2 of U^e U^g, and moves it to U^{g+e}.  Up to
``_ARRAY_TERMS`` terms a loop forms the two products of the commutator term
by term, bit for bit, and a family of monomials runs each slot's loop on one
read of ``a`` (``QElement.family_ad``).  Above it the monomial's
``diagonal_action`` weights the int64 exponent rows of ``a.keyed()`` all at
once by the same rule, up to rounding (:func:`_monomial_weights`), for the
cohomology maps too; the heat flow reads its ``lam``,
|c|^2 4 sin^2(omega . e / 2) with omega = theta g.

Sums and differences take the array route when both operands hold arrays,
and negation, scaling, adjoints and norms when their operand does.  Adjoints
of dicts of more than ``_ARRAY_TERMS`` terms take it too: they cross near 16
terms even when the arrays must first be built.  Sums merge sorted exponent
codes (``HeldTerms._array_merge`` in :mod:`ncdiff.carrier`) and give the
loop's coefficients bit for bit; :func:`_array_adjoint` gives them up to the
rounding of numpy's complex products.  Elements built from dicts with at
most ``_ARRAY_TERMS`` terms, such as every operand of ``selftest`` and of
the CLI's ``eval``, keep the loops and their results bit for bit.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .carrier import PRUNE_EPSILON, HeldTerms, _KeyedBasis, frozen, moduli, sum_by_code

Monomial = tuple  # exponent tuple (e_1, ..., e_m)


class SpecMismatchError(ValueError):
    """Raised when two elements over different presentations are combined."""


class QAlgebraSpec:
    """Presentation of an algebra on q-commuting unitary generators.

    Parameters
    ----------
    theta:
        Real m x m skew-symmetric matrix of relation angles, radians, within
        1e-12 * max(1, |entry|); stored built from its strict upper triangle.
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
        with np.errstate(over="ignore"):
            if not (np.abs(th + th.T) <= 1e-12 * np.maximum(1.0, np.abs(th))).all():
                raise ValueError("structure angle matrix must be skew-symmetric")
        th = np.triu(th, 1)  # one angle for every reader of th[j, k] or th[k, j]
        th -= th.T
        th.setflags(write=False)
        self.theta = th
        self.label = label
        self.meta = dict(meta or {})
        self.prune_epsilon = float(prune_epsilon)
        # nonzero strict-upper entries drive every phase computation; Python
        # floats multiply faster than numpy scalars and overflow without a warning
        self._pairs = tuple((j, k, float(th[j, k])) for j in range(m)
                            for k in range(j + 1, m) if th[j, k] != 0.0)

    def __reduce__(self):
        # rebuilt through __init__, so theta comes back read-only and _pairs
        # is derived from it again
        return QAlgebraSpec, (self.theta, self.label, self.meta, self.prune_epsilon)

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


def _angle(spec: QAlgebraSpec, e, f):
    """The angle of U^e U^f = exp(i * angle) U^{e+f}, the only angle of this
    module: ``(t * e[k]) * f[j]`` summed over ``spec._pairs``.  The adjoint of
    U^e takes ``_angle(spec, e, e)``, exactly minus the angle of U^e U^{-e}.
    ``e`` and ``f`` may be exponent tuples, transposed int64 exponent rows, or
    columns broadcasting to a grid (``E.T[:, :, None]`` against ``F.T[:, None]``)."""
    ang = 0.0
    for j, k, t in spec._pairs:
        ang += t * e[k] * f[j]
    return ang


# Products with more term pairs than this take the array route.
_ARRAY_PAIRS = 256
# Term pairs per chunk of the array route (a chunk is whole rows of the grid).
_CHUNK_PAIRS = 4096
# Largest exponent box whose coefficient sums are kept in dense bins.
_DENSE_BINS = 4 * _CHUNK_PAIRS
# Exponents of the array route stay below this in modulus, so a sum of two fits in int64.
_EXPONENT_LIMIT = 2 ** 62
# Commutators [c U^g, a] with more terms in ``a`` than this take the array
# route; both routes took the same time near 32 terms, for 2 to 4 generators.
# So do adjoints, whose routes cross near 16 terms even when the arrays must
# first be built from a dict.
_ARRAY_TERMS = 32


def _pair_product(spec: QAlgebraSpec, ta: dict, tb: dict) -> dict:
    """Unpruned terms of the product, one term pair at a time; each angle is
    :func:`_angle`'s, its factors ``t * e[k]`` formed once per term of ``ta``."""
    out: dict = {}
    for e, ca in ta.items() if tb else ():  # no factor of an exponent without a pair
        te = [(j, t * e[k]) for j, k, t in spec._pairs]
        for f, cb in tb.items():
            ang = 0.0
            for j, s in te:
                ang += s * f[j]
            c = ca * cb
            if ang != 0.0:
                c *= cmath.exp(1j * ang)
            g = tuple(map(operator.add, e, f))
            out[g] = out.get(g, 0j) + c
    return out


def _exponent_rows(terms: dict, m: int):
    """Exponents as int64 rows in column-major order, or None when one is too
    large for the array route."""
    try:
        rows = np.fromiter(itertools.chain.from_iterable(terms), np.int64,
                           len(terms) * m).reshape(len(terms), m)
    except OverflowError:
        return None
    return np.asfortranarray(rows) if _fits(rows) else None


def _fits(rows: np.ndarray) -> bool:
    """Whether every exponent is below ``_EXPONENT_LIMIT`` in modulus."""
    return not rows.size or -_EXPONENT_LIMIT < rows.min() and rows.max() < _EXPONENT_LIMIT


def _box(lo: list, hi: list):
    """Extents and int64 strides of the row-major mixed radix over the
    exponent box [lo, hi], or None when the box has more codes than int64 holds."""
    ext = [b - a + 1 for a, b in zip(lo, hi)]
    if math.prod(ext) >= 2 ** 63:
        return None
    return ext, np.array([math.prod(ext[k + 1:]) for k in range(len(ext))], dtype=np.int64)


def _phase_table(spec: QAlgebraSpec, E: np.ndarray, F: np.ndarray):
    """exp(1j * angle) and ``angle != 0.0`` of U^e U^f per pair of exponent
    classes, flattened, after the class codes of E's rows (scaled by F's
    class count) and of F's; None when there are more than ``_CHUNK_PAIRS``
    such pairs.  A class is a row's values in the columns k of E or j of F of
    ``spec._pairs``, the only ones an angle reads, coded in mixed radix."""
    codes, grids, cells = [], [], 1
    for X, i in ((E, 1), (F, 0)):
        cols = sorted({p[i] for p in spec._pairs})
        V = X[:, cols].T
        lo = V.min(1)
        ext = (V.max(1) - lo + 1).tolist()
        cells *= math.prod(ext)
        if cells > _CHUNK_PAIRS:
            return None
        codes.append(np.ravel_multi_index(V - lo[:, None], ext))
        grids.append(np.zeros((math.prod(ext), X.shape[1])))
        grids[-1][:, cols] = np.indices(ext).reshape(len(cols), -1).T + lo
    ang = _angle(spec, grids[0].T[:, :, None], grids[1].T[:, None])
    return codes[0] * len(grids[1]), codes[1], np.exp(1j * ang).ravel(), (ang != 0.0).ravel()


def _pair_sums(a: "QElement", b: "QElement", weights=None):
    """Sums over the grid of term pairs of two nonempty elements, in numpy:
    the exponent rows g of their product and P(g), the sum of a_e b_f phi(e, f)
    over the pairs with e + f = g, where U^e U^f = phi(e, f) U^{e+f}.  With
    ``weights = (u, v)``, one real weight per term of a and of b, also R(g),
    the same sum of a_e b_f phi(e, f) (u_e + v_f).  None when an exponent
    reaches 2**62 or the box has more codes than int64 holds.

    Angles are those of :func:`_angle` on broadcast exponent columns, and a
    phase is applied only where the angle is nonzero, as in
    :func:`_pair_product`.  A grid of more than one chunk gathers its
    phases from :func:`_phase_table` unless that declines; the table holds
    the same doubles, so the sums are the same bit for bit.
    Each product exponent is coded in mixed radix over its box
    ``[min E + min F, max E + max F]``.  A box of at most ``_DENSE_BINS``
    codes sums with ``np.bincount`` into dense bins.  A wider box sorts the
    codes chunk by chunk.
    """
    spec = a.spec
    ka, kb = a.keyed(), b.keyed()
    if ka is None or kb is None:
        return None
    (E, ca), (F, cb) = ka, kb
    loE, loF = E.min(0), F.min(0)
    box = _box((loE + loF).tolist(), (E.max(0) + F.max(0)).tolist())
    if box is None:
        return None
    ext, stride = box
    size = math.prod(ext)
    codeE, codeF = stride @ (E.T - loE[:, None]), stride @ (F.T - loF[:, None])
    sets = 1 if weights is None else 2
    dense = size <= _DENSE_BINS
    if dense:
        re, im, hit = np.zeros((sets, size)), np.zeros((sets, size)), np.zeros(size, dtype=bool)
    else:
        parts = []
    # Overflowing angles and coefficients give inf and nan without a warning;
    # the finiteness checks see them.
    with np.errstate(over="ignore", invalid="ignore"):
        table = (_phase_table(spec, E, F)
                 if spec._pairs and len(E) * len(F) > _CHUNK_PAIRS else None)
        step = max(1, _CHUNK_PAIRS // len(F))
        for r0 in range(0, len(E), step):
            rows = slice(r0, r0 + step)
            c = np.multiply.outer(ca[rows], cb)
            if table:
                cls = np.add.outer(table[0][rows], table[1])
                np.multiply(c, table[2][cls], out=c, where=table[3][cls])
            elif spec._pairs:
                ang = _angle(spec, E[rows].T[:, :, None], F.T[:, None])
                np.multiply(c, np.exp(1j * ang), out=c, where=ang != 0.0)
            vals = [c.ravel()]
            if weights is not None:
                vals.append((c * np.add.outer(weights[0][rows], weights[1])).ravel())
            keys = np.add.outer(codeE[rows], codeF).ravel()
            if dense:
                for s, v in enumerate(vals):
                    re[s] += np.bincount(keys, v.real, size)
                    im[s] += np.bincount(keys, v.imag, size)
                hit[keys] = True
            else:
                parts.append(sum_by_code(keys, *vals))
        if dense:
            keys = np.flatnonzero(hit)
            sums = re[:, keys] + 1j * im[:, keys]
        else:
            keys, *sums = sum_by_code(*map(np.concatenate, zip(*parts)))
    return ((np.stack(np.unravel_index(keys, ext)) + (loE + loF)[:, None]).T, *sums)


def _array_product(a: "QElement", b: "QElement") -> "QElement":
    """The product of two elements from :func:`_pair_sums`, held as arrays
    unless an exponent reaches 2**62; an exponent of 2**62 or more, or a box
    with more codes than int64 holds, goes to the pair loop."""
    if not a._size() or not b._size():
        return QElement(a.spec)
    summed = _pair_sums(a, b)
    if summed is None:
        return a._like(_pair_product(a.spec, a.terms, b.terms))
    return a._from_keys(*summed)


def _array_adjoint(a: "QElement") -> "QElement":
    """a^* held as arrays: conjugate coefficients on the negated exponent
    rows, times exp(i phi) where the angle phi of U^e U^e (:func:`_angle`) is
    nonzero, as in the loop of ``QElement.adjoint``."""
    E, c = a.keyed()
    v = c.conj()
    if a.spec._pairs:
        with np.errstate(over="ignore", invalid="ignore"):
            ang = _angle(a.spec, E.T, E.T)
            np.multiply(v, np.exp(1j * ang), out=v, where=ang != 0.0)
    return a._held(-E, v)


def _monomial_ad_loop(spec: QAlgebraSpec, g: Monomial, c: complex, terms: dict,
                      factors: list) -> dict:
    """The terms of [c U^g, a], one term of ``a`` at a time, pruned.

    The term a_e U^e gives p_1 = c a_e exp(i phi_1) and p_2 = a_e c exp(i phi_2),
    phi_1 and phi_2 the :func:`_angle` of U^g U^e and of U^e U^g (``factors``:
    (j, k, t, t g[k], g[j]) per pair of ``spec._pairs``), each pruned as the
    two products of :func:`~ncdiff.carrier.commutator` prune them, and
    p_1 - p_2 on U^{g+e}, pruned too.  Keys and coefficients are the
    commutator's, bit for bit (the product loop stores 0j + p, which can differ
    only in the sign of a zero part); this loop is the oracle of
    :func:`_monomial_weights`.
    """
    eps = spec.prune_epsilon
    out = {}
    for e, ae in terms.items():
        phi1 = phi2 = 0.0
        for j, k, t, s, gj in factors:
            phi1 += s * e[j]
            phi2 += t * e[k] * gj
        p1 = c * ae
        if phi1 != 0.0:
            p1 *= cmath.exp(1j * phi1)
        p2 = ae * c
        if phi2 != 0.0:
            p2 *= cmath.exp(1j * phi2)
        key = tuple(map(operator.add, g, e))
        if not abs(p1) <= eps:
            if not abs(v := p1 if abs(p2) <= eps else p1 - p2) <= eps:
                out[key] = v
        elif not abs(p2) <= eps:
            out[key] = -p2
    return out


def _monomial_weights(spec: QAlgebraSpec, g: Monomial, c: complex):
    """The weights of [c U^g, .]: ``weigh(E, coeffs)`` gives, for int64
    exponent rows E (one row per term) and term coefficients a_e, the
    coefficient of U^{g+e} in [c U^g, sum_e a_e U^e].

    They follow :func:`_monomial_ad_loop`, with :func:`_angle` on the rows,
    up to the rounding of numpy's complex products (exactly when c a_e = 1):
    the products p_1 = c a_e exp(i phi_1) and p_2 = c a_e exp(i phi_2) are
    each dropped at ``prune_epsilon``, a phase is applied only where its angle
    is nonzero, and p_1 - p_2 is dropped at ``prune_epsilon`` too; a dropped
    term weighs 0.  Overflowing angles and products give nan and inf weights
    without a warning; a finite product whose modulus overflows raises
    ``OverflowError``, as in the loop.
    """
    eps = spec.prune_epsilon

    def weigh(E, coeffs):
        with np.errstate(over="ignore", invalid="ignore"):
            p = c * np.asarray(coeffs, dtype=complex)
            phi1, phi2 = _angle(spec, g, E.T), _angle(spec, E.T, g)
            p1 = np.multiply(p, np.exp(1j * phi1), out=p.copy(), where=phi1 != 0.0)
            p2 = np.multiply(p, np.exp(1j * phi2), out=p, where=phi2 != 0.0)
            p1[moduli(p1) <= eps] = 0.0
            p2[moduli(p2) <= eps] = 0.0
            v = p1 - p2
            v[moduli(v) <= eps] = 0.0
        return v
    return weigh


def _exponents(mono) -> tuple:
    """The exponents of ``mono`` as Python ints: a ValueError that names it
    where one is not an integer (2.0 included), never a truncation."""
    try:
        return tuple(map(operator.index, mono))
    except TypeError:
        raise ValueError(f"monomial {mono} needs integer exponents") from None


class QElement(HeldTerms):
    """Finite complex combination of normal-ordered monomials.

    Immutable; all operations return new elements.  Use ``QElement.monomial``
    or :func:`normal_order` to construct non-trivial elements.
    """

    __slots__ = ("spec", "_terms", "_keyed")
    parent_name = "presentation"

    def __init__(self, spec: QAlgebraSpec, terms: Mapping[Monomial, complex] | None = None):
        m = spec.generator_count
        eps = spec.prune_epsilon
        tt = {}
        for mono, c in (terms or {}).items():
            e = _exponents(mono)
            if len(e) != m:
                raise ValueError(f"monomial {mono} has wrong arity for {m} generators")
            c = complex(c)
            if not abs(c) <= eps:  # keeps a nan for the finiteness checks
                tt[e] = c
        self.spec = spec
        self._terms = tt
        self._keyed = None

    def _over(self, terms) -> "QElement":
        out = object.__new__(QElement)
        out.spec = self.spec
        out._terms = terms
        out._keyed = None
        return out

    _eps = property(lambda self: self.spec.prune_epsilon)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, spec) -> "QElement":
        return cls(spec, {(0,) * spec.generator_count: 1.0})

    @classmethod
    def monomial(cls, spec, exponents: Sequence[int], coeff: complex = 1.0) -> "QElement":
        return cls(spec, {tuple(exponents): coeff})

    @classmethod
    def generator(cls, spec, index: int) -> "QElement":
        """Generator U_index, index in 1..m: the word of one letter (index, 1)."""
        return normal_order(spec, [(index, 1)])

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "QElement"):
        if not self.spec.same_as(other.spec):
            raise SpecMismatchError("elements live over different presentations")

    def __mul__(self, other):
        if isinstance(other, QElement):
            self._check(other)
            if self._keyed or other._keyed:
                pairs = self._size() * other._size()
            else:
                pairs = len(self.terms) * len(other.terms)
            if pairs > _ARRAY_PAIRS:
                return _array_product(self, other)
            return self._like(_pair_product(self.spec, self.terms, other.terms))
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def keyed(self):
        """The exponents as int64 rows and the coefficients as an array, both
        read-only, or None when an exponent is 2**62 or more.  Built once and
        kept."""
        return self._arrays()

    def _encode(self):
        E = _exponent_rows(self.terms, self.spec.generator_count)
        return None if E is None else frozen(
            E, np.fromiter(self.terms.values(), complex, len(E)))

    def _decode(self) -> dict:
        E, coeffs = self._keyed
        return dict(zip(map(tuple, E.tolist()), coeffs.tolist()))

    def _sum_codes(self, cols):
        """Mixed-radix codes over the box of the exponent columns, or None
        when it has more codes than int64 holds."""
        lo = cols.min(1)
        box = _box(lo.tolist(), cols.max(1).tolist())
        return None if box is None else box[1] @ (cols - lo[:, None])

    def _from_keys(self, E, coeffs) -> "QElement":
        """``coeffs[i]`` on the distinct exponent rows ``E[i]``, pruned as by
        ``_like``; held as arrays (copies of them) unless an exponent is
        2**62 or more."""
        E = np.array(E, dtype=np.int64, order="F")
        coeffs = np.array(coeffs, dtype=complex)
        if _fits(E):
            return self._held(E, coeffs)
        return self._like(dict(zip(map(tuple, E.tolist()), coeffs.tolist())))

    def diagonal_action(self):
        """For a single monomial c U^g: int64 exponent rows E land on E + g,
        weighted by :func:`_monomial_weights`, whose squared moduli ``lam(E)``
        gives in closed form.  None for any other element, and when g is too
        large for int64 rows."""
        if self._size() != 1:
            return None
        (g, c), = self.terms.items()
        if max(map(abs, g)) >= _EXPONENT_LIMIT:
            return None
        weigh, shift = _monomial_weights(self.spec, g, c), np.array(g, dtype=np.int64)
        omega, size = self.spec.theta @ shift, 2 * abs(c)  # the angles differ by omega . e

        def act(E, coeffs):
            return E + shift, weigh(E, coeffs)
        act.lam = lambda E: (size * np.sin(E @ omega / 2)) ** 2  # |c (1 - exp(i omega . e))|^2
        return act

    def ad(self):
        """a -> [self, a]: a single monomial takes its loop (``family_ad``) on
        operands held as dicts of up to ``_ARRAY_TERMS`` terms, bit for bit;
        everything else goes to :meth:`Normed.ad`."""
        act, hook = super().ad(), QElement.family_ad([self])

        def ad(a):
            part = hook(a)
            return act(a) if part is None or part[0] is None else self._over(part[0])
        ad.action = act.action
        return ad

    @classmethod
    def family_ad(cls, family: list):
        """Over one presentation: each monomial slot c U^g's :func:`_monomial_ad_loop`,
        with what its angles take from g formed once, on an ``a`` held as a dict
        of up to ``_ARRAY_TERMS`` terms; None for the other slots."""
        x, spec, loops = family[0], family[0].spec, [None] * len(family)
        if any(y.spec is not spec for y in family):
            return None
        for j, y in enumerate(family):
            if y._size() == 1:
                (g, c), = y.terms.items()
                loops[j] = g, c, [(i, k, t, t * g[k], g[i]) for i, k, t in spec._pairs]

        def hook(a):
            if isinstance(a, QElement) and not a._keyed and len(a.terms) <= _ARRAY_TERMS:
                x._check(a)
                terms = a.terms
                return [m and _monomial_ad_loop(spec, m[0], m[1], terms, m[2]) for m in loops]
        return hook

    def adjoint(self) -> "QElement":
        if self._keyed or len(self.terms) > _ARRAY_TERMS and self.keyed() is not None:
            return _array_adjoint(self)
        out = {}
        for e, c in self.terms.items():
            ang = _angle(self.spec, e, e)
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


class QMonomialBasis(_KeyedBasis):
    """Monomials with every exponent in [-K, K] as carrier coordinates: int64
    exponent rows in ``itertools.product`` order, so the coordinate of e is the
    mixed-radix number of e + K in base 2K + 1."""

    def __init__(self, spec: QAlgebraSpec, K: int):
        self.spec = spec
        self.K = K = self._checked_size(K, "truncation K")
        m, side = spec.generator_count, 2 * K + 1
        keys = np.indices((side,) * m).reshape(m, -1).T.astype(np.int64) - K
        super().__init__(QElement(spec), keys)
        self._stride = side ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self.description = f"{spec.label or 'q-lattice'} monomials |e|<={K}"

    def _rows(self, E: np.ndarray) -> np.ndarray:
        rows = np.full(len(E), -1)
        if E.shape[1:] == self._stride.shape:
            inside = (np.abs(E) <= self.K).all(axis=1)
            rows[inside] = (E[inside] + self.K) @ self._stride
        return rows


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

    ``word`` is a sequence of ``(index, exponent)`` pairs of integers, index in
    1..m (a ValueError names any other letter).  Returns the single-monomial element
    equal to the word under the relations, its exchange phase as the coefficient.
    """
    m = spec.generator_count
    acc = None
    for index, power in word:
        try:
            index, power = operator.index(index), operator.index(power)
        except TypeError:
            raise ValueError(f"letter {(index, power)!r} needs integer index and power") from None
        if not 1 <= index <= m:
            raise ValueError(f"generator index {index} out of range 1..{m}")
        if power == 0:
            continue
        e = [0] * m
        e[index - 1] = power
        letter = QElement.monomial(spec, e)
        acc = letter if acc is None else acc * letter
    return QElement.one(spec) if acc is None else acc


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
    within ``tol``, and ``SpecMismatchError`` when ``a`` is not over ``spec``.
    """
    from .matrix_algebra import MatElement

    if spec.generator_count != 2 or a.spec.generator_count != 2:
        raise ValueError("clock/shift image needs a two-generator presentation")
    if not spec.same_as(a.spec):
        raise SpecMismatchError("element lives over a different presentation")
    theta = spec.theta[1, 0]
    x = theta / (2.0 * math.pi)
    frac = Fraction(x).limit_denominator(max_denominator)
    if abs(x - float(frac)) > tol:
        raise ValueError(f"theta={theta} is not a rational multiple of 2*pi within {tol}")
    q = frac.denominator
    w = cmath.exp(1j * theta)
    clock = np.diag([w ** j for j in range(q)]).astype(complex)
    shift = np.roll(np.eye(q, dtype=complex), 1, axis=0)
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
