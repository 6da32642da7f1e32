"""The carrier protocol: what the calculus needs from an algebra.

The derivative ``delta a = sum_j [U_j, a] dU_j`` needs only a product, an
adjoint and a norm from its carrier.  A carrier element supplies ``+``,
``-``, unary ``-``, ``scale(c)``, ``*`` (by an element and by a scalar),
``adjoint()`` and ``norm()``; :class:`Normed` then adds ``is_zero``,
``equal_within``, scalar-on-the-left products, ``abs`` (the norm) and
``ad()``, the map ``a -> [self, a]``.  A carrier with keys (exponent rows,
matrix-unit indices, term keys) gives them as ``keyed()``, builds elements
back with ``_from_keys``, and states in ``diagonal_action`` how an element
that acts diagonally on them (a q-lattice monomial, a vertex projection, a
diagonal matrix) moves each key, with one weight; ``parent_name`` names what
two elements must share (a presentation, a graph, a matrix dimension).
``ad`` takes the action, held as ``ad.action`` for the symbol of a basis
(:class:`ncdiff.forms.Symbol`), which is read on a key set of the carrier
(:class:`_KeyedBasis`, whose subclasses live in the carrier modules); any
other ``ad`` is :func:`commutator`.
``family_ad`` builds the bracket hook of a whole family of elements, which
brackets an operand with every slot at once in raw terms (``_add_raw``,
``_from_raw``).

A term carrier, whose elements are finite combinations of keys (the
q-lattice and the graph), inherits :class:`HeldTerms` and supplies only its
algebra and its coding: the parent hook ``_over``, the prune threshold
``_eps``, ``_check``, the coding of its keys as int64 rows (``_encode``,
``_decode``, ``_sum_codes``), ``__mul__``, ``adjoint``, ``_from_keys`` and
``diagonal_action``.  The rest is built here, once for both: pruned
elements held as dicts (``_like``) or as keyed arrays (``_held``), ``zero``,
sums (a merge of sorted term codes when both operands hold arrays),
negation, scaling, norms, and the dict of an element held as arrays,
decoded on the first read of ``terms``.  Differential forms are
:class:`Terms` too, over covector keys with carrier-element coefficients.

This module holds the one tolerance policy of the package: elements agree
when their difference has norm at most ``EQ_TOLERANCE``, and term
coefficients at or below ``PRUNE_EPSILON`` in modulus are dropped.  A nan
coefficient is never dropped and makes the norm nan, so the finiteness
checks of :mod:`ncdiff.expr` see it.  Array products sum coefficients by
int64 term code through :func:`sum_by_code`; moduli of held coefficients
come from :func:`moduli`, which raises where Python's ``abs`` does, as the
loops do.  Every record of the package, from an expression node to a
report, is a :class:`_Node`: immutable named fields on one tuple.
"""

from __future__ import annotations

import math
from operator import index, itemgetter

import numpy as np

EQ_TOLERANCE = 1e-10
PRUNE_EPSILON = 1e-12

_new_tuple = tuple.__new__


class _Node(tuple):
    """The tuple of a node's class and its fields.

    A subclass names its fields by the parameters of its ``__new__``, which
    builds the tuple, and reads them by name.  Leading with the class lets
    tuple equality and hashing, in C, tell ``Add(x, y)`` from ``Sub(x, y)``.
    """

    def __init_subclass__(cls):
        code = cls.__new__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(cls.__match_args__, 1):
            setattr(cls, name, property(itemgetter(i)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self[1:]))
        return f"{type(self).__qualname__}({fields})"

    def __getnewargs__(self):
        return self[1:]


def largest(norms) -> float:
    """Largest of some norms: 0.0 when there are none, nan when any is nan."""
    norms = list(norms)
    return math.nan if math.isnan(sum(norms)) else max(norms, default=0.0)


def sum_by_code(codes: np.ndarray, *cs: np.ndarray) -> tuple:
    """Distinct codes, then the sum over each of every complex array of ``cs``."""
    u, inv = np.unique(codes, return_inverse=True)
    inv = inv.ravel()  # numpy 2.0 may return it shaped
    n = len(u)
    return (u, *(np.bincount(inv, c.real, n) + 1j * np.bincount(inv, c.imag, n) for c in cs))


def exact_product(c: complex, v: np.ndarray) -> np.ndarray:
    """c * v as Python multiplies complex numbers, bit for bit: numpy's own
    complex product may fuse a multiply and an add, and round differently."""
    out = np.empty_like(v)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as in Python
        out.real = c.real * v.real - c.imag * v.imag
        out.imag = c.real * v.imag + c.imag * v.real
    return out


def frozen(keys: np.ndarray, coeffs: np.ndarray) -> tuple:
    """Keyed arrays made read-only, so that elements may share them."""
    keys.setflags(write=False)
    coeffs.setflags(write=False)
    return keys, coeffs


def moduli(coeffs: np.ndarray) -> np.ndarray:
    """The moduli of complex ``coeffs``.  Raises ``OverflowError`` where the
    modulus of a finite coefficient overflows, as Python's ``abs`` does."""
    m = np.abs(coeffs)
    inf = np.isinf(m)
    if inf.any() and np.isfinite(coeffs[inf]).any():
        raise OverflowError("absolute value too large")
    return m


def add_terms(acc, terms, sign: int, eps: float) -> dict:
    """The term dict ``acc`` (new for None) plus ``sign`` times the (key, coeff)
    pairs ``terms``, keys distinct, as pruned elements sum: a coefficient at or
    below ``eps`` in modulus is dropped, and so is a sum that falls there."""
    if acc is None:  # the keys are distinct: nothing to sum
        return {k: c if sign > 0 else -c for k, c in terms if not abs(c) <= eps}
    for k, c in terms:
        if not abs(c) <= eps:
            c = -c if sign < 0 else c
            c = acc[k] + c if k in acc else c
            if abs(c) <= eps:
                del acc[k]  # only a sum falls there
            else:
                acc[k] = c
    return acc


def commutator(x, a):
    """[x, a] = x a - a x on any carrier."""
    return x * a - a * x


class Normed:
    """Comparisons and left scalar products from ``norm``, ``-`` and ``scale``."""

    __slots__ = ()

    def __rmul__(self, c):
        if isinstance(c, (int, float, complex)):
            return self.scale(c)
        return NotImplemented

    def keyed(self):
        """None, or ``(keys, coeffs)``: the keys of self in the form that
        ``diagonal_action`` takes, and their coefficients."""
        return None

    def diagonal_action(self):
        """None, or the action of a -> [self, a] on keys when self acts
        diagonally: ``(keys, coeffs) -> (landing, weights)`` with
        [self, sum_i coeffs[i] k_i] = sum_i weights[i] landing[i], a zero weight
        where the image is dropped, ``landing`` the very ``keys`` when no key
        moves; an optional ``lam(keys)`` gives |weights|^2 at unit coeffs."""
        return None

    def ad(self, _act=None):
        """The map a -> [self, a]: ``diagonal_action`` on the keys of an
        operand of this carrier after ``_check``, else :func:`commutator`,
        so that foreign operands raise as they do in a product.  ``_act``,
        when given, is that action, computed with those of a whole family.
        ``ad.action`` holds the ``diagonal_action``."""
        act = self.diagonal_action() if _act is None else _act

        def ad(a):
            if act is not None and isinstance(a, type(self)):
                self._check(a)
                k = a.keyed()
                if k is not None:
                    return a._from_keys(*act(*k))
            return commutator(self, a)
        ad.action = act
        return ad

    @classmethod
    def family_ad(cls, family: list):
        """None, or the bracket hook of the x_j of ``family``: ``hook(a)`` reads ``a``
        once and gives each slot's raw [x_j, a], pruned (None where it does not
        take it), or None.  ``x_j._add_raw(acc, raw, sign)`` adds it into ``acc``
        (new for None) as elements sum; ``_from_raw(acc)`` is the element, None
        for zero."""
        return None

    def __abs__(self) -> float:
        """The norm: the modulus of an element as a coefficient of a form."""
        return self.norm()

    def is_zero(self, tol: float = EQ_TOLERANCE) -> bool:
        return self.norm() <= tol

    def equal_within(self, other, tol: float = EQ_TOLERANCE) -> bool:
        return (self - other).norm() <= tol


class Terms(Normed):
    """Finite combination of basis keys, held in ``terms: {key: coeff}``.

    Subclasses supply ``_check(other)``, which raises when two elements live
    over different parents, ``_over(terms)``, an element over this one's
    parent holding the dict ``terms`` as it is, and the prune threshold
    ``_eps``; :meth:`_like` builds every pruned element from them.  A
    coefficient is a complex number or any carrier element, whose modulus
    ``abs`` is its norm: sums need only ``+``, ``-`` and unary ``-`` of the
    coefficients, and ``scale`` needs ``c * coeff``.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, parent):
        """The zero element over ``parent``."""
        return cls(parent)

    def _like(self, terms: dict):
        """Element over this one's parent holding ``terms``, whose keys are
        canonical, without the coefficients of modulus at or below ``_eps``
        (a nan is kept)."""
        eps = self._eps
        return self._over({k: c for k, c in terms.items() if not abs(c) <= eps})

    def _add_raw(self, acc, raw: dict, sign: int) -> dict:
        # raw: pruned terms in a dict of their own, which may start the sum as it is
        if acc is None and sign > 0:
            return raw
        return add_terms(acc, raw.items(), sign, self._eps)

    def _from_raw(self, acc: dict):
        return self._over(acc) if acc else None

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._like(out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] - c if k in out else -c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c: complex):
        c = complex(c)
        return self._like({k: c * v for k, v in self.terms.items()})

    def __truediv__(self, c: float):
        """Each coefficient divided by the real c."""
        return self._like({k: v / c for k, v in self.terms.items()})

    def norm(self) -> float:
        """Largest coefficient modulus (0.0 for the zero element, nan if any is nan)."""
        return largest(abs(c) for c in self.terms.values())


class HeldTerms(Terms):
    """Terms held as the dict ``terms``, as keyed arrays or as both.

    ``_terms`` is the dict, or None until ``terms`` is first read from an
    element held as arrays only.  ``_keyed`` is None before the arrays are
    built, False when the terms cannot be coded, else ``(keys, coeffs)``:
    read-only int64 key rows, one per term in column-major order, and complex
    coefficients.  Elements built from dicts hold dicts; the array routes
    return elements held as arrays, which pass them on to the next array
    route.  Both kinds are built here: dicts by ``_like`` and arrays by
    ``_held``, from the subclass's ``_over`` (which holds the dict it is
    given, or None, and no arrays) and ``_eps``.  A subclass also supplies
    ``_encode()`` (the arrays of ``terms``, or None), ``_decode()`` (the
    dict of the held arrays) and ``_sum_codes(cols)`` (int64 codes of the
    key columns ``cols``, equal for equal keys, or None).
    """

    __slots__ = ()

    def _held(self, keys: np.ndarray, coeffs: np.ndarray):
        """Element over this one's parent held as the distinct int64 key rows
        ``keys`` and the complex ``coeffs``, pruned as by ``_like``: rows in
        column-major order, where numpy reduces and slices one key column
        many times faster, both read-only (arrays passed in become so)."""
        keep = ~(moduli(coeffs) <= self._eps)
        if not keep.all():
            keys, coeffs = keys.T[:, keep].T, coeffs[keep]
        out = self._over(None)
        out._keyed = frozen(np.asfortranarray(keys), coeffs)
        return out

    @property
    def terms(self) -> dict:
        """The terms as ``{key: coeff}``, decoded from the held arrays on the
        first read and kept."""
        terms = self._terms
        if terms is None:
            terms = self._terms = self._decode()
        return terms

    def __setstate__(self, state):
        # numpy unpickles arrays writeable; held arrays may be shared, so
        # they are made read-only again
        for name, value in state[1].items():
            setattr(self, name, frozen(*value) if name == "_keyed" and value else value)

    def _arrays(self):
        """The held arrays, built once and kept; None when the terms cannot be coded."""
        keyed = self._keyed
        if keyed is None:
            keyed = self._keyed = self._encode() or False
        return keyed or None

    def _size(self) -> int:
        keyed = self._keyed
        return len(keyed[1]) if keyed else len(self.terms)

    def _array_merge(self, other, sign: int):
        """``self + sign * other`` by a merge of sorted term codes, for two
        elements that both hold arrays, or None for the loop.

        The codes of both operands are sorted stably, so a key held by both
        is the run a_k, +-b_k, summed as the loop of :class:`Terms` sums it
        (x - y is x + (-y) in floating point), and every other coefficient
        stays as it is, negated for b when sign is -1: the coefficients are
        the loop's bit for bit.
        """
        self._check(other)
        (A, ca), (B, cb) = self._keyed, other._keyed
        cols = np.concatenate([A.T, B.T], axis=1)  # one row per key column
        if not cols.shape[1]:
            return self._held(A, ca)
        codes = self._sum_codes(cols)
        if codes is None:
            return None
        vals = np.concatenate([ca, cb if sign > 0 else -cb])
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as in Python
            vals = np.add.reduceat(vals[order], starts)
        return self._held(cols[:, order[starts]].T, vals)

    # The operations below test the held arrays inline and call the loops of
    # Terms directly: the many small operands of the loops pay no extra call.
    # Sums, negation, scaling and norms read arrays only when they are held:
    # built from a dict first, they cost more than the loops up to several
    # hundred terms.

    def __add__(self, other):
        if self._keyed and isinstance(other, type(self)) and other._keyed:
            out = self._array_merge(other, 1)
            if out is not None:
                return out
        return Terms.__add__(self, other)

    def __sub__(self, other):
        if self._keyed and isinstance(other, type(self)) and other._keyed:
            out = self._array_merge(other, -1)
            if out is not None:
                return out
        return Terms.__sub__(self, other)

    def __neg__(self):
        if self._keyed:
            keys, coeffs = self._keyed
            return self._held(keys, -coeffs)
        return Terms.__neg__(self)

    def scale(self, c: complex):
        if self._keyed:
            keys, coeffs = self._keyed
            return self._held(keys, exact_product(complex(c), coeffs))
        return Terms.scale(self, c)

    def norm(self) -> float:
        if self._keyed:
            coeffs = self._keyed[1]
            return float(np.abs(coeffs).max()) if len(coeffs) else 0.0  # nan if any is nan
        return Terms.norm(self)


class TruncationError(ValueError):
    """An element's support left the coordinate truncation."""


class _KeyedBasis:
    """A key set: ``keys`` of the carrier of its element ``parent`` as the
    carrier's ``keyed()`` gives them (None where they cannot be coded), key i
    as coordinate i; ``of(a)`` holds an operand's own.  The carrier modules'
    key sets (``MatrixCarrierBasis``, ``QMonomialBasis``, ``GraphCarrierBasis``)
    add ``description`` and ``_rows``, the coordinate of each of an array of
    keys (-1 for a key outside), and so coordinates for their elements."""

    def __init__(self, parent, keys):
        self.parent, self.keys = parent, keys

    @classmethod
    def of(cls, a) -> "_KeyedBasis":
        return cls(a, (a.keyed() or (None,))[0])

    @staticmethod
    def _checked_size(value, name: str) -> int:
        """A key set's size as an int; a ValueError naming it unless a nonnegative int, not bool."""
        if not hasattr(value, "__index__") or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        return index(value)

    @property
    def dim(self) -> int:
        return len(self.keys)

    def elements(self) -> list:
        """The carrier element of each key, with coefficient 1."""
        return [self.parent._from_keys(self.keys[i:i + 1], [1 + 0j]) for i in range(self.dim)]

    def _check(self, x) -> None:
        """ValueError for an element of another kind or over another parent."""
        if not isinstance(x, type(self.parent)):
            raise ValueError(f"a {type(x).__name__} has no coordinates in the {self.description}")
        self.parent._check(x)

    def entries(self, x) -> tuple[list, list]:
        """Coordinates and values of x's nonzero terms; TruncationError for one outside."""
        self._check(x)
        keyed = x.keyed()
        if keyed is None:
            raise TruncationError(f"{x} escapes the {self.description}")
        keys, coeffs = keyed[0], np.asarray(keyed[1], dtype=complex)
        rows = self._rows(keys)
        nz = np.flatnonzero(coeffs)  # keeps a nan
        out = nz[rows[nz] < 0]
        if len(out):
            key = keys[out[0]]
            key = tuple(key.tolist()) if isinstance(key, np.ndarray) else key
            raise TruncationError(f"{key} escapes the {self.description}")
        return rows[nz].tolist(), coeffs[nz].tolist()

    def coords(self, x) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        idx, vals = self.entries(x)
        v[idx] = vals
        return v
