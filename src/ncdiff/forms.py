"""Graded differential forms over any carrier algebra.

A differential basis is a tuple of carrier elements U_1..U_n whose members
and adjoints mutually commute; for matrices, exactly when they share one
unitary eigenbasis (Horn & Johnson, Matrix Analysis, 2.5).  Forms are
:class:`~ncdiff.carrier.Terms` over covector index pairs (I, J) with
carrier-element coefficients, representing

    alpha = sum a_{I,J} dU_I ^ dU_J^*

with I the unstarred slots and J the starred ones, each strictly
increasing.  The first-order derivative acts by inner derivations,

    delta a = sum_j [c_j U_j, a] dU_j + sum_j [(c_j U_j)^*, a] dU_j^*,

extended to higher degree by deriving coefficients and wedging the new
covector in front.  Where each new covector lands, and with which sign, comes
from the basis's front-merge table, filled from :func:`_merge_indices` the
first time a covector index (I, J) is derived.  A family's bracket hook (the
carrier's ``family_ad`` of the actions ``ad`` holds, in ``family_hooks``) reads
``a`` once and gives every slot's bracket in the carrier's raw terms, each signed
bracket summed into one accumulator per output covector: a coefficient is
built once, and not at all when it sums to zero.  A bracket the hook does not
take (a rotated matrix, a non-monomial slot, an operand held as arrays) is
the element ``ad(a)``, summed as elements sum.
delta^2 = 0 follows from the commuting-basis condition; the split delta =
partial + partial_star and the star operation need the complex
(paired-covector) mode.  A self-adjoint basis mode identifies dU_j^* with
dU_j, halving the complex and disabling the type decomposition.

Carrier elements only need what the protocol in :mod:`ncdiff.carrier`
lists; the q-lattice, matrix and graph carriers all qualify.  A basis holds
the symbol of its brackets (:class:`Symbol`), read on a key set of its
carrier through one entry point, ``symbol.on(keyset)``: the weights per family
(for the cohomology ranks) and the heat symbol lambda (for the heat flow).
"""

from __future__ import annotations

import functools
import operator
import warnings
from itertools import repeat
from math import inf
from typing import Mapping, Sequence

import numpy as np

from .carrier import EQ_TOLERANCE, HeldTerms, Terms, commutator
from .matrix_algebra import MatElement, joint_eigenbasis, scaled_family

FormIndex = tuple  # ((i_1..i_p), (j_1..j_q)) of 0-based slots, each ascending


class BasisModeError(ValueError):
    """Operation unavailable in the basis's covector mode."""


class BasisConditionError(ValueError):
    """Proposed differential basis violates the commuting condition."""


class DifferentialBasis:
    """Validated tuple of carrier elements seeding a differential calculus.

    Parameters
    ----------
    elements:
        Carrier elements U_1..U_n.
    prefactors:
        Optional scalars c_j; the derivative uses c_j U_j in slot j.
    mode:
        ``"complex"`` keeps paired covectors dU_j, dU_j^*;
        ``"selfadjoint"`` requires U_j = U_j^* and keeps only dU_j.

    A matrix family is checked and held from its arrays in one pass
    (:func:`~ncdiff.matrix_algebra.scaled_family`), a diagonal one from its
    diagonals alone, with ``eigenbasis`` (None, its diagonals); any other keeps
    the :func:`~ncdiff.matrix_algebra.joint_eigenbasis` that validates it as
    ``eigenbasis``.  It is None on other carriers.
    ``diagonal`` is diag(c_j lambda_j) for a rotated eigenbasis Q (in the
    coordinates of the unitary a -> Q^* a Q), and ``scaled`` otherwise.
    ``ad[j]`` and ``ad_star[j]`` are the maps a -> [c_j U_j, a] and
    a -> [(c_j U_j)^*, a], built once from the carrier's ``ad`` hook and read
    by the :class:`Symbol` ``scaled_symbol``; ``symbol`` is that of ``diagonal``.
    ``families`` lists the covector families, (False,) for dU_j alone and
    (False, True) when dU_j^* is kept too.
    """

    def __init__(self, elements: Sequence, prefactors: Sequence[complex] | None = None,
                 mode: str = "complex", label: str = ""):
        if mode not in ("complex", "selfadjoint"):
            raise ValueError(f"unknown mode {mode!r}")
        self.elements = list(elements)
        if not self.elements:
            raise ValueError("basis needs at least one element")
        n = len(self.elements)
        self.prefactors = [complex(c) for c in (prefactors if prefactors is not None
                                                else [1.0] * n)]
        if len(self.prefactors) != n:
            raise ValueError("one prefactor per basis element")
        self.mode = mode
        self.label = label

        matrices, held = all(isinstance(u, MatElement) for u in self.elements), None
        if matrices:
            self.scaled, self.scaled_star, self.ad, self.ad_star, held = scaled_family(
                [u.mat for u in self.elements], self.prefactors)
        else:
            self.scaled = [c * u for c, u in zip(self.prefactors, self.elements)]
        norms, defects, diagonals = held or ((x.norm() for x in self.scaled), None, None)
        for j, (size, u) in enumerate(zip(norms, self.elements)):
            if size == 0.0 and u.norm() != 0.0:  # a carrier may prune c u to nothing
                raise BasisConditionError(f"basis element {j + 1} times its prefactor is zero")
        self.eigenbasis = None
        if matrices:
            for u in self.elements[1:]:
                self.elements[0]._check(u)  # one dimension for every element
            self.eigenbasis = ((None, diagonals) if diagonals is not None
                               else joint_eigenbasis([u.mat for u in self.elements]))
            commuting = self.eigenbasis is not None
        else:
            # adjoints also cover self-adjoint mode: only the prefactor conjugates
            self.scaled_star = [x.adjoint() for x in self.scaled]
            self.ad, self.ad_star = ([x.ad() for x in xs] for xs in (self.scaled, self.scaled_star))
            # [X, Y]^* = [Y^*, X^*] and carrier norms are adjoint-invariant, so
            # [x_i, x_j] for i < j and [x_i, x_j^*] for i <= j cover every pair
            # of scaled elements x_j = c_j U_j.  Each is divided by its norm, so
            # the defect counts relative to |x| |y| and no product overflows
            units = [_unit(x) for x in self.scaled + self.scaled_star]
            commuting = all(commutator(x, y).norm() <= EQ_TOLERANCE
                            for i, x in enumerate(units[:n])
                            for y in units[i + 1:n] + units[n + i:])
        if not commuting:
            raise BasisConditionError(
                "basis elements and their adjoints must mutually commute")
        # |u - u^*| relative to |u|, as the commuting check reads it
        if defects is None:
            defects = [(v - v.adjoint()).norm() for v in map(_unit, self.elements)]
        hermitian = [d <= EQ_TOLERANCE for d in defects]
        if mode == "selfadjoint":
            if not all(hermitian):
                raise BasisConditionError(
                    "self-adjoint mode needs self-adjoint basis elements")
        else:
            for j, h in enumerate(hermitian):
                if h:
                    warnings.warn(f"basis element {j + 1} is self-adjoint; the "
                                  "paired covectors dU, dU* coincide on it",
                                  stacklevel=2)

        Q, lams = self.eigenbasis or (None, None)
        self.diagonal = self.scaled if Q is None else [
            MatElement(np.diag(c * lam)) for c, lam in zip(self.prefactors, lams)]
        self.scaled_symbol = Symbol(self.scaled, (self.ad, self.ad_star))
        self.symbol = self.scaled_symbol if Q is None else Symbol(self.diagonal)
        self.families = (False,) if mode == "selfadjoint" else (False, True)
        self._front: dict = {}

    @functools.cached_property
    def family_hooks(self) -> tuple:
        """The carrier's bracket hooks of dU_j and dU_j^* from their held actions, or None."""
        return tuple(type(xs[0]).family_ad(xs, [f.action for f in ad]) for xs, ad in
                     zip((self.scaled, self.scaled_star), (self.ad, self.ad_star)))

    def front_merges(self, I: tuple, J: tuple) -> tuple:
        """Where dU_j, or dU_j^*, lands when wedged in front of dU_I ^ dU_J^*.

        Row ``starred`` for each family, dU_j (False) and dU_j^* (True), in
        either mode, one entry per slot j: the ``(sign, key)`` of
        :func:`_merge_indices`, or None when the covector repeats.  Rows are
        filled on first use and kept on this basis, so the table is as large
        as the set of covector indices derived over it.
        """
        rows = self._front.get((I, J))
        if rows is None:
            rows = self._front[(I, J)] = tuple(
                tuple(_merge_indices((), (j,), I, J) if starred
                      else _merge_indices((j,), (), I, J) for j in range(self.size))
                for starred in (False, True))
        return rows

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def top_degree(self) -> int:
        return 2 * self.size if self.mode == "complex" else self.size

    def __repr__(self):
        return f"DifferentialBasis(n={self.size}, mode={self.mode}, label={self.label!r})"


def _unit(x):
    """x divided by its norm, or x when that is 0: scaled by 1 / |x|, or
    divided by |x| where that overflows (a subnormal |x|)."""
    size = x.norm()
    if not size:
        return x
    return x.scale(1 / size) if 1 / size != inf else x / size


class Symbol:
    """The symbol of a basis's inner derivations x_j in the coordinates of
    ``elements``, read from the held maps a -> [x_j, a] ``maps[starred][j]``
    (x_j^* when starred; built on first use when None), whose ``action`` sends
    key k to w_j(k) times one key: lambda(k) = sum_j |w_j(k)|^2 is the heat
    symbol.  It is read on one key set at a time, through :meth:`on`."""

    def __init__(self, elements: list, maps: tuple | None = None):
        self.elements, self._maps = elements, maps

    def on(self, keyset) -> "KeyedSymbol":
        """The symbol on a key set (:class:`~ncdiff.carrier._KeyedBasis`), such as
        the matrix units of M_n or an operand's own keys; nothing is read yet."""
        if self._maps is None:
            self._maps = [[(x.adjoint() if s else x).ad() for x in self.elements] for s in (0, 1)]
        return KeyedSymbol(self, keyset)


class KeyedSymbol:
    """A :class:`Symbol` on one key set: the weights and landings per
    family (``weights``) and the heat symbol (``lam``)."""

    def __init__(self, symbol: Symbol, keyset):
        self.symbol, self.parent, self.keys = symbol, keyset.parent, keyset.keys

    def _actions(self, families: tuple) -> list:
        """Each map's action per family and slot, or None; raises as a product
        with the parent raises for another carrier, ``_check`` for another parent."""
        for x in self.symbol.elements:
            if not isinstance(x, type(self.parent)):
                commutator(x, self.parent)  # a product across carriers raises TypeError
            x._check(self.parent)
        return [f.action for starred in families for f in self.symbol._maps[starred]]

    def weights(self, families: tuple) -> list:
        """``(landing, w)`` per action of ``families``, or None: keys[i] goes to
        w[i] times landing[i], with inf or nan weights where they overflow, silently."""
        acts, ones = self._actions(families), np.ones(len(self.keys))
        with np.errstate(over="ignore", invalid="ignore"):
            return [None if f is None else f(self.keys, ones) for f in acts]

    def lam(self) -> np.ndarray:
        """lambda on the keys: each action's closed form ``lam``, else |w|^2.  A
        ValueError where the keys cannot be coded, the basis does not act
        (diagonally) on them, or lambda is not finite."""
        try:
            acts = self._actions((False,))
        except (TypeError, ValueError):  # another kind of carrier, or another parent
            raise ValueError(f"basis does not act on this {self.parent.parent_name}") from None
        if self.keys is None or any(f is None and x.keyed() is None
                                    for x, f in zip(self.symbol.elements, acts)):
            raise ValueError("exponents of 2**62 or more are too large for the heat flow")
        if None in acts:
            raise ValueError("the heat flow needs diagonally acting (single-monomial) elements")
        with np.errstate(over="ignore", invalid="ignore"):
            lam = sum(f.lam(self.keys) if hasattr(f, "lam") else
                      np.abs(f(self.keys, np.ones(len(self.keys)))[1]) ** 2 for f in acts)
        if not np.isfinite(lam).all():
            raise ValueError("the heat symbol is not finite")
        return lam


def _inversions(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(1 for x in a for y in b if x > y)


def _merge_indices(I1, J1, I2, J2) -> tuple[int, FormIndex] | None:
    """Canonicalize dU_{I1} dU*_{J1} dU_{I2} dU*_{J2}; None when a covector repeats."""
    if set(I1) & set(I2) or set(J1) & set(J2):
        return None
    inv = len(J1) * len(I2) + _inversions(I1, I2) + _inversions(J1, J2)
    sign = -1 if inv % 2 else 1
    return sign, (tuple(sorted(I1 + I2)), tuple(sorted(J1 + J2)))


def _vanishes(a) -> bool:
    """Whether the carrier element ``a`` has norm 0, read without its norm
    where the carrier allows: a term carrier pruning at a threshold of at
    least 0 holds no zero coefficient, so it vanishes exactly when it has no
    terms, and a matrix when it has no nonzero entry (nan is nonzero)."""
    if isinstance(a, HeldTerms) and a._eps >= 0:
        return not a._size()
    if isinstance(a, MatElement):
        return not np.count_nonzero(a.mat)
    return a.norm() == 0.0


class DifferentialForm(Terms):
    """Graded form: carrier-element coefficients on covector index keys (I, J)."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: DifferentialBasis,
                 terms: Mapping[FormIndex, object] | None = None):
        n = basis.size
        table = {}
        for (I, J), a in (terms or {}).items():
            I, J = tuple(I), tuple(J)
            for idx in (I, J):  # slots of any integer type, kept as Python ints
                if not all(hasattr(x, "__index__") and 0 <= x < n for x in idx) \
                        or list(idx) != sorted(set(idx)):
                    raise ValueError(f"bad covector index {idx}")
            I, J = tuple(map(operator.index, I)), tuple(map(operator.index, J))
            if basis.mode == "selfadjoint" and J:
                raise BasisModeError("self-adjoint mode has no starred covectors")
            if not _vanishes(a):
                table[(I, J)] = a
        self.basis = basis
        self.terms = table

    def _like(self, terms: dict) -> "DifferentialForm":
        """The form holding ``terms`` without the coefficients of norm 0."""
        return self._over({k: a for k, a in terms.items() if not _vanishes(a)})

    def _over(self, terms) -> "DifferentialForm":
        out = object.__new__(DifferentialForm)
        out.basis = self.basis
        out.terms = terms
        return out

    @classmethod
    def from_element(cls, basis, a) -> "DifferentialForm":
        """Wrap a carrier element as a 0-form."""
        return cls(basis, {((), ()): a})

    def _check(self, other):
        if self.basis is not other.basis:
            raise ValueError("forms live over different bases")

    def degrees(self) -> set:
        return {(len(I), len(J)) for I, J in self.terms}

    def total_degree(self) -> int:
        """Degree of a homogeneous form (0 for the zero form)."""
        degs = {len(I) + len(J) for I, J in self.terms}
        if len(degs) > 1:
            raise ValueError("form is not homogeneous")
        return degs.pop() if degs else 0

    def __repr__(self):
        keys = sorted(self.terms, key=lambda k: (len(k[0]) + len(k[1]), k))
        return f"DifferentialForm({len(self.terms)} terms, indices {keys[:6]})"


def _derive(alpha: DifferentialForm, families: tuple) -> DifferentialForm:
    """[x_j, a] wedged in front of every term a dU_I ^ dU_J^*, summed over j and
    over ``families`` (False for dU_j with x_j = c_j U_j, True for dU_j^*)."""
    basis = alpha.basis
    # x: an element of the carrier whose raw terms the hooks give
    acts, hooks, x = (basis.ad, basis.ad_star), basis.family_hooks, basis.scaled[0]
    out, raw = {}, {}  # key -> element, or None while its brackets sum in raw[key]
    for (I, J), a in alpha.terms.items():
        rows = basis.front_merges(I, J)
        for starred in families:
            hits, hook = rows[starred], hooks[starred]
            if not any(hits):  # no bracket: the coefficient is neither read nor checked
                continue
            parts = (hook(a) if hook is not None else None) or repeat(None)
            for hit, act, part in zip(hits, acts[starred], parts):
                if hit is None:
                    continue
                sign, key = hit
                if out.setdefault(key) is None:
                    if part is not None:
                        raw[key] = x._add_raw(raw.get(key), part, sign)
                        continue
                    if key in raw:
                        out[key] = x._from_raw(raw.pop(key))
                term = act(a) if sign > 0 else -act(a)
                out[key] = term if out[key] is None else out[key] + term
    out.update((key, x._from_raw(acc)) for key, acc in raw.items())  # built: nonzero, or None
    keeps_zeros = isinstance(x, HeldTerms) and x._eps < 0  # then a built sum may be zero
    return alpha._over({k: c for k, c in out.items() if c is not None
                        and (k in raw and not keeps_zeros or not _vanishes(c))})


def delta(alpha: DifferentialForm) -> DifferentialForm:
    """First-order derivative, extended to any degree.

    In complex mode both covector families appear; in self-adjoint mode
    only the unstarred half exists.
    """
    return _derive(alpha, alpha.basis.families)


def partial(alpha: DifferentialForm) -> DifferentialForm:
    """Unstarred half of the derivative (complex mode only)."""
    if alpha.basis.mode != "complex":
        raise BasisModeError("type decomposition needs complex mode")
    return _derive(alpha, (False,))


def partial_star(alpha: DifferentialForm) -> DifferentialForm:
    """Starred half of the derivative (complex mode only)."""
    if alpha.basis.mode != "complex":
        raise BasisModeError("type decomposition needs complex mode")
    return _derive(alpha, (True,))


def wedge(alpha: DifferentialForm, beta: DifferentialForm) -> DifferentialForm:
    """Exterior product; coefficients multiply in the carrier, in the order written."""
    alpha._check(beta)
    out: dict = {}
    for (I1, J1), a in alpha.terms.items():
        for (I2, J2), b in beta.terms.items():
            hit = _merge_indices(I1, J1, I2, J2)
            if hit is None:
                continue
            sign, key = hit
            term = a * b
            if sign < 0:
                term = -term
            out[key] = out[key] + term if key in out else term
    return alpha._like(out)


def star(alpha: DifferentialForm) -> DifferentialForm:
    """Conjugate-linear star: coefficients adjointed, covector families swapped.

    Maps a (p, q) component to a (q, p) one with sign (-1)^{pq}; an involution.
    """
    if alpha.basis.mode != "complex":
        raise BasisModeError("star needs complex mode")
    out: dict = {}
    for (I, J), a in alpha.terms.items():
        sign = -1 if (len(I) * len(J)) % 2 else 1
        term = a.adjoint()
        if sign < 0:
            term = -term
        key = (J, I)
        out[key] = out[key] + term if key in out else term
    return alpha._like(out)


def grade(alpha: DifferentialForm) -> dict[tuple[int, int], DifferentialForm]:
    """Split into homogeneous (p, q) components; summing them reassembles alpha."""
    buckets: dict = {}
    for (I, J), a in alpha.terms.items():
        buckets.setdefault((len(I), len(J)), {})[(I, J)] = a
    return {pq: alpha._like(tbl) for pq, tbl in buckets.items()}


def form_to_json(alpha: DifferentialForm, coeff_to_json) -> dict:
    """Serialize with a caller-supplied carrier coefficient encoder."""
    return {
        "basis_ref": alpha.basis.label,
        "terms": [{"I": [i + 1 for i in I], "J": [j + 1 for j in J],
                   "coefficient": coeff_to_json(a)}
                  for (I, J), a in sorted(alpha.terms.items())],
    }
