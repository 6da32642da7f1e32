"""The carrier protocol: what the calculus needs from an algebra.

The derivative ``delta a = sum_j [U_j, a] dU_j`` needs only a product, an
adjoint and a norm from its carrier.  A carrier element supplies ``+``,
``-``, unary ``-``, ``scale(c)``, ``*`` (by an element and by a scalar),
``adjoint()`` and ``norm()``; :class:`Normed` then adds ``is_zero``,
``equal_within``, scalar-on-the-left products and ``ad()``, the map
``a -> [self, a]``.  A carrier with keys (exponent rows, matrix-unit
indices, term keys) gives them as ``keyed()``, builds elements back with
``_from_keys``, and states in ``diagonal_action`` how an element that acts
diagonally on them (a q-lattice monomial, a vertex projection, a diagonal
matrix) moves each key, with one weight.  ``ad``, the carrier coordinates,
the cohomology maps and the heat flow all read it; any other ``ad`` is
:func:`commutator`.  A carrier whose elements are finite combinations of
basis keys inherits :class:`Terms` and supplies only ``_check``, ``_like``,
``__mul__`` and ``adjoint``; differential forms are :class:`Terms` too,
over covector keys with carrier-element coefficients.

This module holds the one tolerance policy of the package: elements agree
when their difference has norm at most ``EQ_TOLERANCE``, and term
coefficients at or below ``PRUNE_EPSILON`` in modulus are dropped.  A nan
coefficient is never dropped and makes the norm nan, so the finiteness
checks of :mod:`ncdiff.expr` see it.

The array routes of the q-lattice and graph products both sum their
coefficients by int64 term code through :func:`sum_by_code`.
"""

from __future__ import annotations

import math

import numpy as np

EQ_TOLERANCE = 1e-10
PRUNE_EPSILON = 1e-12


def largest(norms) -> float:
    """Largest of some norms: 0.0 when there are none, nan when any is nan."""
    norms = list(norms)
    return math.nan if math.isnan(sum(norms)) else max(norms, default=0.0)


def sum_by_code(codes: np.ndarray, c: np.ndarray):
    """Distinct codes and the sum of the complex ``c`` over each."""
    u, inv = np.unique(codes, return_inverse=True)
    inv = inv.ravel()  # numpy 2.0 may return it shaped
    n = len(u)
    return u, np.bincount(inv, c.real, n) + 1j * np.bincount(inv, c.imag, n)


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
        [self, sum_i coeffs[i] k_i] = sum_i weights[i] landing[i], a zero
        weight where the image is dropped."""
        return None

    def ad(self):
        """The map a -> [self, a]: ``diagonal_action`` on the keys of an
        operand of this carrier after ``_check``, else :func:`commutator`,
        so that foreign operands raise as they do in a product."""
        act = self.diagonal_action()
        if act is None:
            return lambda a: commutator(self, a)

        def ad(a):
            if not isinstance(a, type(self)):
                return commutator(self, a)
            self._check(a)
            keyed = a.keyed()
            return commutator(self, a) if keyed is None else a._from_keys(*act(*keyed))
        return ad

    def is_zero(self, tol: float = EQ_TOLERANCE) -> bool:
        return self.norm() <= tol

    def equal_within(self, other, tol: float = EQ_TOLERANCE) -> bool:
        return (self - other).norm() <= tol


class Terms(Normed):
    """Finite combination of basis keys, held in ``terms: {key: coeff}``.

    Subclasses supply ``_check(other)``, which raises when two elements live
    over different parents, and ``_like(terms)``, which builds an element
    over this one's parent from canonical keys, dropping small coefficients.
    A coefficient is a complex number or any carrier element: sums need
    only ``+``, ``-`` and unary ``-`` of the coefficients, and ``scale``
    needs ``c * coeff``.  A subclass with non-scalar coefficients also
    supplies ``norm``.
    """

    __slots__ = ()

    def __add__(self, other):
        # either class may be the other's subclass, such as a q-lattice
        # element held as arrays only
        if not (isinstance(other, type(self)) or isinstance(self, type(other))):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._like(out)

    def __sub__(self, other):
        if not (isinstance(other, type(self)) or isinstance(self, type(other))):
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

    def norm(self) -> float:
        """Largest coefficient modulus (0.0 for the zero element, nan if any is nan)."""
        return largest(abs(c) for c in self.terms.values())
