"""Boundary-map assembly and kernel/rank computation for the form complexes.

Degree-k forms over a finite-dimensional (or truncated) carrier span a
vector space with basis {carrier basis element} x {covector index}; the
derivative becomes an explicit complex matrix whose ranks give the de Rham
and Dolbeault dimensions.  Truncated q-lattice carriers use nested exponent
balls so the assembled maps never leave their codomain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import forms
from .carrier import commutator
from .forms import DifferentialBasis, DifferentialForm
from .graph_algebra import DirectedGraph, GraphElement
from .matrix_algebra import MatElement
from .qlattice import QAlgebraSpec, QElement


class TruncationError(ValueError):
    """An element's support left the coordinate truncation."""


class MatrixCarrierBasis:
    """Matrix units of M_n as carrier coordinates."""

    def __init__(self, n: int):
        self.n = n
        self.description = f"M_{n} matrix units"

    @property
    def dim(self) -> int:
        return self.n * self.n

    def elements(self) -> list[MatElement]:
        return [MatElement.unit(self.n, i, j)
                for i in range(self.n) for j in range(self.n)]

    def coords(self, a: MatElement) -> np.ndarray:
        if a.n != self.n:
            raise ValueError("dimension mismatch")
        return a.mat.reshape(-1).copy()


class _KeyedBasis:
    """Carrier coordinates over a list of term keys: ``keys[i]`` is coordinate i."""

    def __init__(self, keys: list, description: str):
        self.keys = keys
        self._index = {k: i for i, k in enumerate(keys)}
        self.description = description

    @property
    def dim(self) -> int:
        return len(self.keys)

    def coords(self, x) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        for k, c in x.terms.items():
            i = self._index.get(k)
            if i is None:
                raise TruncationError(f"{k} escapes the {self.description}")
            v[i] = c
        return v


class QMonomialBasis(_KeyedBasis):
    """Monomials with every exponent in [-K, K] as carrier coordinates."""

    def __init__(self, spec: QAlgebraSpec, K: int):
        if K < 0:
            raise ValueError("truncation must be nonnegative")
        self.spec = spec
        self.K = K
        super().__init__(list(itertools.product(range(-K, K + 1),
                                                repeat=spec.generator_count)),
                         f"{spec.label or 'q-lattice'} monomials |e|<={K}")

    def elements(self) -> list[QElement]:
        return [QElement.monomial(self.spec, e) for e in self.keys]


class GraphCarrierBasis(_KeyedBasis):
    """Common-range path pairs with both lengths <= max_len as coordinates."""

    def __init__(self, graph: DirectedGraph, max_len: int):
        self.graph = graph
        self.max_len = max_len
        by_range: dict = {}
        for p in graph.paths_up_to(max_len):
            by_range.setdefault(p.range, []).append(p)
        super().__init__([(mu, nu) for group in by_range.values()
                          for mu in group for nu in group],
                         f"graph terms |mu|,|nu|<={max_len}")

    def elements(self) -> list[GraphElement]:
        return [GraphElement.term(self.graph, mu, nu) for mu, nu in self.keys]


def _form_indices(n: int, k: int, mode: str) -> list:
    """Covector indices of total degree k, canonical order."""
    out = []
    if mode == "selfadjoint":
        if 0 <= k <= n:
            out = [(I, ()) for I in itertools.combinations(range(n), k)]
        return out
    for p in range(k + 1):
        q = k - p
        if p > n or q > n:
            continue
        for I in itertools.combinations(range(n), p):
            for J in itertools.combinations(range(n), q):
                out.append((I, J))
    return out


def _dolbeault_indices(n: int, p: int, q: int) -> list:
    if p > n or q > n or p < 0 or q < 0:
        return []
    return [(I, J) for I in itertools.combinations(range(n), p)
            for J in itertools.combinations(range(n), q)]


def _assemble(op, out_indices: list, in_indices: list,
              basis: DifferentialBasis, domain, codomain) -> np.ndarray:
    """Matrix of a form operator in the product coordinates."""
    d_in = domain.dim * len(in_indices)
    d_out = codomain.dim * len(out_indices)
    out_pos = {idx: i for i, idx in enumerate(out_indices)}
    M = np.zeros((d_out, d_in), dtype=complex)
    carrier_elems = domain.elements()
    for col_idx, key in enumerate(in_indices):
        for b_i, b in enumerate(carrier_elems):
            col = col_idx * domain.dim + b_i
            image = op(DifferentialForm(basis, {key: b}))
            for okey, coeff in image.coeffs.items():
                row_block = out_pos.get(okey)
                if row_block is None:
                    raise ValueError(f"operator produced unexpected index {okey}")
                M[row_block * codomain.dim:(row_block + 1) * codomain.dim, col] += \
                    codomain.coords(coeff)
    return M


def boundary_matrix(k: int, basis: DifferentialBasis, carrier_basis,
                    codomain_basis=None) -> np.ndarray:
    """The derivative in degree k as an explicit matrix.

    ``carrier_basis`` coordinates the domain coefficients; ``codomain_basis``
    (default: the same) must be large enough to hold every image coefficient,
    otherwise a :class:`TruncationError` is raised.
    """
    codomain = codomain_basis or carrier_basis
    n, mode = basis.size, basis.mode
    return _assemble(forms.delta,
                     _form_indices(n, k + 1, mode), _form_indices(n, k, mode),
                     basis, carrier_basis, codomain)


def dolbeault_matrix(p: int, q: int, basis: DifferentialBasis, carrier_basis,
                     codomain_basis=None) -> np.ndarray:
    """The starred half-derivative on (p, q) forms as an explicit matrix."""
    codomain = codomain_basis or carrier_basis
    n = basis.size
    return _assemble(forms.partial_star,
                     _dolbeault_indices(n, p, q + 1), _dolbeault_indices(n, p, q),
                     basis, carrier_basis, codomain)


def numeric_rank(M: np.ndarray, threshold: float | None = None) -> int:
    """Rank by singular values; default threshold max_dim * eps * sigma_max."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if threshold is None:
        threshold = max(M.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
    return int((s > threshold).sum())


@dataclass
class DegreeRow:
    k: int
    dim_ker: int
    rank_prev: int
    h_dim: int


@dataclass
class ComplexReport:
    """Per-degree kernel/rank/cohomology dimensions for one chain of maps."""
    basis_label: str
    carrier_description: str
    truncation: dict | None
    degrees: list = field(default_factory=list)

    def h(self, k: int) -> int:
        for row in self.degrees:
            if row.k == k:
                return row.h_dim
        raise KeyError(k)

    def to_json(self) -> dict:
        return {
            "basis": self.basis_label,
            "carrier": self.carrier_description,
            "truncation": self.truncation,
            "degrees": [{"k": r.k, "dim_ker": r.dim_ker,
                         "rank_prev": r.rank_prev, "h_dim": r.h_dim}
                        for r in self.degrees],
        }


def _chain_report(maps: list[np.ndarray], dims: list[int], basis_label: str,
                  carrier_description: str, truncation: dict | None,
                  threshold: float | None) -> ComplexReport:
    """Cohomology rows from consecutive maps; maps[k] acts on a space of dims[k]."""
    report = ComplexReport(basis_label, carrier_description, truncation)
    ranks = [numeric_rank(M, threshold) for M in maps]
    for k in range(len(maps)):
        dim_ker = dims[k] - ranks[k]
        rank_prev = ranks[k - 1] if k > 0 else 0
        report.degrees.append(DegreeRow(k, dim_ker, rank_prev, dim_ker - rank_prev))
    return report


def deRham_dims(basis: DifferentialBasis, carrier_basis,
                max_degree: int | None = None,
                threshold: float | None = None) -> ComplexReport:
    """De Rham dimensions over an exact (untruncated) carrier."""
    top = basis.top_degree if max_degree is None else max_degree
    maps, dims = [], []
    for k in range(top + 1):
        n_in = len(_form_indices(basis.size, k, basis.mode)) * carrier_basis.dim
        dims.append(n_in)
        maps.append(boundary_matrix(k, basis, carrier_basis))
    return _chain_report(maps, dims, basis.label, carrier_basis.description,
                         None, threshold)


def dolbeault_dims(p: int, basis: DifferentialBasis, carrier_basis,
                   threshold: float | None = None) -> ComplexReport:
    """Dolbeault dimensions of the row at fixed unstarred degree p."""
    n = basis.size
    maps, dims = [], []
    for q in range(n + 1):
        dims.append(len(_dolbeault_indices(n, p, q)) * carrier_basis.dim)
        maps.append(dolbeault_matrix(p, q, basis, carrier_basis))
    return _chain_report(maps, dims, basis.label, carrier_basis.description,
                         None, threshold)


def _max_basis_degree(basis: DifferentialBasis) -> int:
    d = 0
    for x in basis.scaled:
        for e in x.terms:
            d = max(d, max(abs(v) for v in e) if e else 0)
    return d


def deRham_dims_truncated(basis: DifferentialBasis, spec: QAlgebraSpec, K: int,
                          max_degree: int | None = None,
                          threshold: float | None = None) -> ComplexReport:
    """De Rham dimensions on a truncated q-lattice carrier.

    Bumping a coefficient by a basis commutator can raise exponents by at
    most the basis degree d, so the chain uses the nested balls
    K-2d -> K-d -> K: the degree-k kernel is computed on the K-d ball and
    the incoming rank on the K-2d ball, keeping every assembled map inside
    its stated codomain.  Cohomology numbers inherit the truncation and are
    reported with that provenance.
    """
    d = _max_basis_degree(basis)
    if K < 2 * d:
        raise TruncationError(f"truncation K={K} too small for basis degree {d}")
    ball_mid = QMonomialBasis(spec, K - d)
    ball_small = QMonomialBasis(spec, K - 2 * d)
    ball_big = QMonomialBasis(spec, K)
    top = basis.top_degree if max_degree is None else max_degree
    report = ComplexReport(basis.label,
                           ball_mid.description,
                           {"K": K, "kernel_domain_K": K - d, "image_domain_K": K - 2 * d})
    for k in range(top + 1):
        Mk = boundary_matrix(k, basis, ball_mid, ball_big)
        dim_ker = ball_mid.dim * len(_form_indices(basis.size, k, basis.mode)) \
            - numeric_rank(Mk, threshold)
        rank_prev = 0
        if k > 0:
            Mprev = boundary_matrix(k - 1, basis, ball_small, ball_mid)
            rank_prev = numeric_rank(Mprev, threshold)
        report.degrees.append(DegreeRow(k, dim_ker, rank_prev, dim_ker - rank_prev))
    return report


# -- direct degree-zero routes ----------------------------------------------

def _commutator_stack(gens: list, carrier_basis) -> np.ndarray:
    """Matrix of a -> ([x, a])_x in carrier coordinates, one row block per x."""
    elems = carrier_basis.elements()
    blocks = []
    for x in gens:
        block = np.zeros((carrier_basis.dim, carrier_basis.dim), dtype=complex)
        for i, b in enumerate(elems):
            block[:, i] = carrier_basis.coords(commutator(x, b))
        blocks.append(block)
    return np.vstack(blocks)


def commutant_kernel_dimension(basis: DifferentialBasis, carrier_basis,
                               include_adjoints: bool = False,
                               threshold: float | None = None) -> int:
    """Dimension of {a : [U_j, a] = 0 for all j} assembled element by element.

    Independent of the form-index machinery: rows are raw commutator
    coordinates.  With ``include_adjoints`` the starred commutators join the
    system.
    """
    gens = list(basis.scaled)
    if include_adjoints:
        gens += [x.adjoint() for x in basis.scaled]
    M = _commutator_stack(gens, carrier_basis)
    return carrier_basis.dim - numeric_rank(M, threshold)


def _null_basis(M: np.ndarray, threshold: float | None = None) -> np.ndarray:
    u, s, vh = np.linalg.svd(M)
    if threshold is None:
        threshold = max(M.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
    r = int((s > threshold).sum())
    return vh[r:].conj().T


def fuglede_putnam_check(basis: DifferentialBasis, carrier_basis,
                         tol: float = 1e-8) -> bool:
    """Whether commuting with the basis forces commuting with the adjoints.

    Compares the null space of a -> ([U_j, a])_j with the null space of the
    system extended by the starred commutators: equal dimensions plus mutual
    containment.
    """
    L1 = _commutator_stack(basis.scaled, carrier_basis)
    L2 = np.vstack([L1, _commutator_stack(basis.scaled_star, carrier_basis)])
    N1 = _null_basis(L1)
    N2 = _null_basis(L2)
    if N1.shape[1] != N2.shape[1]:
        return False
    if N1.shape[1] == 0:
        return True
    return float(np.abs(L2 @ N1).max()) <= tol


def c00_membership(a: QElement, tol: float = 1e-8):
    """Coefficient test for membership in the commutant of U on a 2-torus.

    [U, U^k V^l] = (1 - e^{-i l theta}) U^{k+1} V^l, so the element commutes
    with U exactly when every stored coefficient sits at an l with
    e^{i l theta} = 1.  Returns ``(member, witnesses)`` with the offending
    (k, l) pairs.
    """
    spec = a.spec
    if spec.generator_count != 2:
        raise ValueError("membership test needs a two-generator presentation")
    theta = spec.theta[1, 0]
    witnesses = [e for e in sorted(a.terms)
                 if abs(1.0 - np.exp(1j * theta * e[1])) > tol]
    return (not witnesses), witnesses

