"""The carrier protocol: what the calculus needs from an algebra.

The derivative ``delta a = sum_j [U_j, a] dU_j`` needs only a product, an
adjoint and a norm from its carrier.  A carrier element supplies ``+``,
``-``, unary ``-``, ``scale(c)``, ``*`` (by an element and by a scalar),
``adjoint()`` and ``norm()``; :class:`Normed` then adds ``is_zero``,
``equal_within``, scalar-on-the-left products and ``ad()``, the map
``a -> [self, a]``.  The generic ``ad`` is :func:`commutator`, two products
and a difference.  The elements that act diagonally on their carrier's
keys (q-lattice monomials, vertex projections, diagonal matrices) state that
action once, in ``diagonal_action``: each key lands on one key with one
weight.  Their ``ad`` and the cohomology maps both read it.  A carrier
whose elements are finite combinations of basis keys inherits :class:`Terms`
and supplies only ``_check``, ``_like``, ``__mul__`` and ``adjoint``;
differential forms are :class:`Terms` too, over covector keys with
carrier-element coefficients.

This module holds the one tolerance policy of the package: elements agree
when their difference has norm at most ``EQ_TOLERANCE``, and term
coefficients at or below ``PRUNE_EPSILON`` in modulus are dropped.  A nan
coefficient is never dropped and makes the norm nan, so the finiteness
checks of :mod:`ncdiff.expr` see it.
"""

from __future__ import annotations

import math

EQ_TOLERANCE = 1e-10
PRUNE_EPSILON = 1e-12


def largest(norms) -> float:
    """Largest of some norms: 0.0 when there are none, nan when any is nan."""
    norms = list(norms)
    return math.nan if math.isnan(sum(norms)) else max(norms, default=0.0)


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

    def ad(self):
        """The map a -> [self, a]; the generic one is :func:`commutator`."""
        return lambda a: commutator(self, a)

    def diagonal_action(self):
        """None, or the action of a -> [self, a] on an array of the carrier's
        keys when self acts diagonally: ``keys -> (landing, weights)`` with
        [self, k_i] = weights[i] landing[i], a zero weight where the image is
        dropped.  A carrier that has one says what its keys are."""
        return None

    def _diagonal_ad(self, act):
        """An ``ad`` map that applies ``act`` to elements of this carrier after
        ``_check``, and :func:`commutator` to anything else, so that foreign
        operands raise as they do in a product."""
        kind = type(self)

        def ad(a):
            if not isinstance(a, kind):
                return commutator(self, a)
            self._check(a)
            return act(a)
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

    def norm(self) -> float:
        """Largest coefficient modulus (0.0 for the zero element, nan if any is nan)."""
        return largest(abs(c) for c in self.terms.values())
