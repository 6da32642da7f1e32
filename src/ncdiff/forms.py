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
covector in front.  delta^2 = 0 follows from the commuting-basis condition;
the split delta = partial + partial_star and the star operation need the
complex (paired-covector) mode.  A self-adjoint basis mode identifies
dU_j^* with dU_j, halving the complex and disabling the type decomposition.

Carrier elements only need what the protocol in :mod:`ncdiff.carrier`
lists; the q-lattice, matrix and graph carriers all qualify.
"""

from __future__ import annotations

import warnings
from math import comb
from typing import Mapping, Sequence

from .carrier import EQ_TOLERANCE, Terms, commutator, largest
from .matrix_algebra import MatElement, joint_eigenbasis

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

    A matrix family keeps the :func:`~ncdiff.matrix_algebra.joint_eigenbasis`
    that validates it as ``eigenbasis``; it is None on other carriers.
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

        adjoints = [u.adjoint() for u in self.elements]
        self.eigenbasis = None
        if all(isinstance(u, MatElement) for u in self.elements):
            for u in self.elements[1:]:
                self.elements[0]._check(u)  # one dimension for every element
            self.eigenbasis = joint_eigenbasis([u.mat for u in self.elements])
            commuting = self.eigenbasis is not None
        else:
            # [X, Y]^* = [Y^*, X^*] and carrier norms are adjoint-invariant, so
            # [U_i, U_j] for i < j and [U_i, U_j^*] for i <= j cover every pair
            commuting = all(commutator(u, v).norm() <= EQ_TOLERANCE
                            for i, u in enumerate(self.elements)
                            for v in self.elements[i + 1:] + adjoints[i:])
        if not commuting:
            raise BasisConditionError(
                "basis elements and their adjoints must mutually commute")
        if mode == "selfadjoint":
            for u, ua in zip(self.elements, adjoints):
                if (u - ua).norm() > EQ_TOLERANCE:
                    raise BasisConditionError(
                        "self-adjoint mode needs self-adjoint basis elements")
        else:
            for j, (u, ua) in enumerate(zip(self.elements, adjoints)):
                if (u - ua).norm() <= EQ_TOLERANCE:
                    warnings.warn(f"basis element {j + 1} is self-adjoint; the "
                                  "paired covectors dU, dU* coincide on it",
                                  stacklevel=2)

        self.scaled = [c * u for c, u in zip(self.prefactors, self.elements)]
        # adjoints also cover self-adjoint mode: only the prefactor conjugates
        self.scaled_star = [x.adjoint() for x in self.scaled]

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def top_degree(self) -> int:
        return 2 * self.size if self.mode == "complex" else self.size

    def __repr__(self):
        return f"DifferentialBasis(n={self.size}, mode={self.mode}, label={self.label!r})"


def _inversions(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(1 for x in a for y in b if x > y)


def _merge_indices(I1, J1, I2, J2) -> tuple[int, FormIndex] | None:
    """Canonicalize dU_{I1} dU*_{J1} dU_{I2} dU*_{J2}; None when a covector repeats."""
    if set(I1) & set(I2) or set(J1) & set(J2):
        return None
    inv = len(J1) * len(I2) + _inversions(I1, I2) + _inversions(J1, J2)
    sign = -1 if inv % 2 else 1
    return sign, (tuple(sorted(I1 + I2)), tuple(sorted(J1 + J2)))


class DifferentialForm(Terms):
    """Graded form: carrier-element coefficients on covector index keys (I, J)."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: DifferentialBasis,
                 terms: Mapping[FormIndex, object] | None = None):
        n = basis.size
        table = {}
        for (I, J), a in (terms or {}).items():
            I, J = tuple(I), tuple(J)
            for idx in (I, J):
                if any(not 0 <= x < n for x in idx) or list(idx) != sorted(set(idx)):
                    raise ValueError(f"bad covector index {idx}")
            if basis.mode == "selfadjoint" and J:
                raise BasisModeError("self-adjoint mode has no starred covectors")
            if a.norm() != 0.0:
                table[(I, J)] = a
        self.basis = basis
        self.terms = table

    def _like(self, terms: dict) -> "DifferentialForm":
        """Form over the same basis: keys already canonical, drops zero coefficients."""
        out = object.__new__(DifferentialForm)
        out.basis = self.basis
        out.terms = {k: a for k, a in terms.items() if a.norm() != 0.0}
        return out

    @classmethod
    def zero(cls, basis) -> "DifferentialForm":
        return cls(basis, {})

    @classmethod
    def from_element(cls, basis, a) -> "DifferentialForm":
        """Wrap a carrier element as a 0-form."""
        return cls(basis, {((), ()): a})

    def _check(self, other):
        if self.basis is not other.basis:
            raise ValueError("forms live over different bases")

    def norm(self) -> float:
        """Largest coefficient norm (0.0 for the zero form, nan if any is nan)."""
        return largest(a.norm() for a in self.terms.values())

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


def _half_delta(alpha: DifferentialForm, starred: bool) -> DifferentialForm:
    gens = alpha.basis.scaled_star if starred else alpha.basis.scaled
    out: dict = {}
    for (I, J), a in alpha.terms.items():
        for j, x in enumerate(gens):
            hit = _merge_indices((), (j,), I, J) if starred else _merge_indices((j,), (), I, J)
            if hit is None:
                continue
            c = commutator(x, a)
            if c.norm() == 0.0:
                continue
            sign, key = hit
            term = c if sign > 0 else -c
            out[key] = out[key] + term if key in out else term
    return alpha._like(out)


def delta(alpha: DifferentialForm) -> DifferentialForm:
    """First-order derivative, extended to any degree.

    In complex mode both covector families appear; in self-adjoint mode
    only the unstarred half exists.
    """
    if alpha.basis.mode == "selfadjoint":
        return _half_delta(alpha, starred=False)
    return _half_delta(alpha, starred=False) + _half_delta(alpha, starred=True)


def partial(alpha: DifferentialForm) -> DifferentialForm:
    """Unstarred half of the derivative (complex mode only)."""
    if alpha.basis.mode != "complex":
        raise BasisModeError("type decomposition needs complex mode")
    return _half_delta(alpha, starred=False)


def partial_star(alpha: DifferentialForm) -> DifferentialForm:
    """Starred half of the derivative (complex mode only)."""
    if alpha.basis.mode != "complex":
        raise BasisModeError("type decomposition needs complex mode")
    return _half_delta(alpha, starred=True)


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


def component_rank(n: int, p: int, q: int) -> int:
    """Free-module rank of the (p, q) covector space over an n-element basis."""
    if p > n or q > n or p < 0 or q < 0:
        return 0
    return comb(n, p) * comb(n, q)


def form_to_json(alpha: DifferentialForm, coeff_to_json) -> dict:
    """Serialize with a caller-supplied carrier coefficient encoder."""
    return {
        "basis_ref": alpha.basis.label,
        "terms": [{"I": [i + 1 for i in I], "J": [j + 1 for j in J],
                   "coefficient": coeff_to_json(a)}
                  for (I, J), a in sorted(alpha.terms.items())],
    }
