"""Boundary-map assembly and kernel/rank computation for the form complexes.

Degree-k forms over a finite-dimensional (or truncated) carrier span a
vector space with basis {covector index} x {carrier basis element}.  The
derivative acts by inner derivations, so each map is assembled from the
matrices A_j of a -> [c_j U_j, a] (and of the starred elements), copied
with their exterior signs into the covector blocks they reach; the
degree-zero commutant systems stack the same A_j.  Ranks take one SVD per
connected component of a map's nonzero pattern (blocks of one shape share a
stacked SVD) and count singular values above max(shape) * eps * sigma_max,
with the shape and sigma_max of the whole map.  When every A_j sends a
carrier key to a single key, as for diagonal matrices, monomials and vertex
projections, the components are small.  Truncated q-lattice carriers use
nested exponent balls so the assembled maps never leave their codomain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .carrier import commutator
from .forms import BasisModeError, DifferentialBasis, _merge_indices
from .graph_algebra import DirectedGraph, GraphElement, common_range_pairs
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
        super().__init__(common_range_pairs(graph, max_len),
                         f"graph terms |mu|,|nu|<={max_len}")

    def elements(self) -> list[GraphElement]:
        return [GraphElement.term(self.graph, mu, nu) for mu, nu in self.keys]


def _dolbeault_indices(n: int, p: int, q: int) -> list:
    """Covector indices of bidegree (p, q), canonical order."""
    if p > n or q > n or p < 0 or q < 0:
        return []
    return [(I, J) for I in itertools.combinations(range(n), p)
            for J in itertools.combinations(range(n), q)]


def _form_indices(n: int, k: int, mode: str) -> list:
    """Covector indices of total degree k, canonical order."""
    if mode == "selfadjoint":
        return _dolbeault_indices(n, k, 0)
    return [idx for p in range(k + 1) for idx in _dolbeault_indices(n, p, k - p)]


def _ad_matrix(x, elems: list, codomain) -> np.ndarray:
    """Coordinates of a -> [x, a]: column i holds [x, elems[i]] in ``codomain``."""
    A = np.zeros((codomain.dim, len(elems)), dtype=complex)
    for i, b in enumerate(elems):
        A[:, i] = codomain.coords(commutator(x, b))
    return A


def _assemble(families: tuple, out_indices: list, in_indices: list,
              basis: DifferentialBasis, domain, codomain) -> np.ndarray:
    """Matrix of the half-derivatives in ``families`` (starred flags).

    Block (out, in) is +-A_j where prepending dU_j (dU_j^* when starred) to
    covector index ``in`` gives ``out``; each A_j is built only when some
    block needs it, and dropped before the next generator's.
    """
    rows, cols = codomain.dim, domain.dim
    out_pos = {idx: i for i, idx in enumerate(out_indices)}
    M = np.zeros((rows * len(out_indices), cols * len(in_indices)), dtype=complex)
    elems = domain.elements()
    for starred in families:
        for j, x in enumerate(basis.scaled_star if starred else basis.scaled):
            A = None
            cov = ((), (j,)) if starred else ((j,), ())
            for c, (I, J) in enumerate(in_indices):
                hit = _merge_indices(*cov, I, J)
                if hit is None:
                    continue
                if A is None:
                    A = _ad_matrix(x, elems, codomain)
                sign, key = hit
                r = out_pos[key]
                M[r * rows:(r + 1) * rows, c * cols:(c + 1) * cols] = A if sign > 0 else -A
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
    families = (False,) if mode == "selfadjoint" else (False, True)
    return _assemble(families,
                     _form_indices(n, k + 1, mode), _form_indices(n, k, mode),
                     basis, carrier_basis, codomain)


def dolbeault_matrix(p: int, q: int, basis: DifferentialBasis, carrier_basis,
                     codomain_basis=None) -> np.ndarray:
    """The starred half-derivative on (p, q) forms as an explicit matrix."""
    if basis.mode != "complex":
        raise BasisModeError("type decomposition needs complex mode")
    codomain = codomain_basis or carrier_basis
    n = basis.size
    return _assemble((True,),
                     _dolbeault_indices(n, p, q + 1), _dolbeault_indices(n, p, q),
                     basis, carrier_basis, codomain)


def _rank(s: np.ndarray, shape: tuple) -> int:
    """Singular values above max(shape) * eps * sigma_max, in any order."""
    if not len(s):
        return 0
    return int((s > max(shape) * np.finfo(float).eps * s.max()).sum())


def _components(u: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """Smallest node of each node's connected component; edge i joins u[i], v[i].

    Each round hooks the larger root of every edge that still spans two
    components onto the smaller one, then jumps pointers until every node
    points at a root.
    """
    lab = np.arange(count)
    while True:
        a, b = lab[u], lab[v]
        split = a != b
        if not split.any():
            return lab
        a, b = a[split], b[split]
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while True:
            hop = lab[lab]
            if np.array_equal(hop, lab):
                break
            lab = hop


def _renumber(values: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values (all below ``count``) in increasing order, and the
    index of each value among them.

    This is ``np.unique(values, return_inverse=True)`` without its sort,
    whose first call in a process adds about 0.5 MB of peak RSS.
    """
    seen = np.zeros(count, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[values]


def _slots(group: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Position of each item within its group (in item order), and the group sizes."""
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group, minlength=count)
    pos = np.empty(len(group), dtype=np.intp)
    pos[order] = np.arange(len(group)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return pos, sizes


def numeric_rank(M: np.ndarray) -> int:
    """Rank by singular values, cut at max(shape) * eps * sigma_max.

    The rows and columns split into the connected components of the
    bipartite graph of M's nonzeros, so M is block diagonal up to
    permutations and its singular values are those of the blocks.  Blocks
    of one shape share a stacked SVD; the cut uses the global sigma_max and
    shape, as a dense SVD of M would.
    """
    rows, cols = np.nonzero(M)
    if not len(rows):
        return 0
    m, n = M.shape
    row_ids, row_of = _renumber(rows, m)
    col_ids, col_of = _renumber(cols, n)
    lab = _components(rows, m + cols, m + n)
    roots, comp = _renumber(np.concatenate([lab[row_ids], lab[m + col_ids]]), m + n)
    row_comp, col_comp = comp[:len(row_ids)], comp[len(row_ids):]
    row_pos, heights = _slots(row_comp, len(roots))
    col_pos, widths = _slots(col_comp, len(roots))
    base = widths.max() + 1
    shapes, group = _renumber(heights * base + widths, (heights.max() + 1) * base)
    slot, counts = _slots(group, len(shapes))
    edge_comp = row_comp[row_of]
    values = M[rows, cols]
    sigmas = []
    for g, shape in enumerate(shapes):
        stack = np.zeros((counts[g], *divmod(shape, base)), dtype=M.dtype)
        hit = group[edge_comp] == g
        stack[slot[edge_comp[hit]], row_pos[row_of[hit]], col_pos[col_of[hit]]] = values[hit]
        sigmas.append(np.linalg.svd(stack, compute_uv=False).ravel())
    return _rank(np.concatenate(sigmas), M.shape)


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
                  carrier_description: str, truncation: dict | None) -> ComplexReport:
    """Cohomology rows from consecutive maps; maps[k] acts on a space of dims[k]."""
    report = ComplexReport(basis_label, carrier_description, truncation)
    ranks = [numeric_rank(M) for M in maps]
    for k in range(len(maps)):
        dim_ker = dims[k] - ranks[k]
        rank_prev = ranks[k - 1] if k > 0 else 0
        report.degrees.append(DegreeRow(k, dim_ker, rank_prev, dim_ker - rank_prev))
    return report


def deRham_dims(basis: DifferentialBasis, carrier_basis,
                max_degree: int | None = None) -> ComplexReport:
    """De Rham dimensions over an exact (untruncated) carrier."""
    top = basis.top_degree if max_degree is None else max_degree
    maps, dims = [], []
    for k in range(top + 1):
        n_in = len(_form_indices(basis.size, k, basis.mode)) * carrier_basis.dim
        dims.append(n_in)
        maps.append(boundary_matrix(k, basis, carrier_basis))
    return _chain_report(maps, dims, basis.label, carrier_basis.description, None)


def dolbeault_dims(p: int, basis: DifferentialBasis, carrier_basis) -> ComplexReport:
    """Dolbeault dimensions of the row at fixed unstarred degree p."""
    n = basis.size
    maps, dims = [], []
    for q in range(n + 1):
        dims.append(len(_dolbeault_indices(n, p, q)) * carrier_basis.dim)
        maps.append(dolbeault_matrix(p, q, basis, carrier_basis))
    return _chain_report(maps, dims, basis.label, carrier_basis.description, None)


def _max_basis_degree(basis: DifferentialBasis) -> int:
    d = 0
    for x in basis.scaled:
        for e in x.terms:
            d = max(d, max(abs(v) for v in e) if e else 0)
    return d


def deRham_dims_truncated(basis: DifferentialBasis, spec: QAlgebraSpec, K: int,
                          max_degree: int | None = None) -> ComplexReport:
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
            - numeric_rank(Mk)
        rank_prev = 0
        if k > 0:
            Mprev = boundary_matrix(k - 1, basis, ball_small, ball_mid)
            rank_prev = numeric_rank(Mprev)
        report.degrees.append(DegreeRow(k, dim_ker, rank_prev, dim_ker - rank_prev))
    return report


# -- direct degree-zero routes ----------------------------------------------

# residual bound for the Fuglede-Putnam containment and the C00 phase test
_TOL = 1e-8


def _commutant_system(gens: list, carrier_basis) -> np.ndarray:
    """Matrix of a -> ([x, a])_x: the blocks A_x stacked, one row block per x."""
    elems = carrier_basis.elements()
    return np.vstack([_ad_matrix(x, elems, carrier_basis) for x in gens])


def commutant_kernel_dimension(basis: DifferentialBasis, carrier_basis,
                               include_adjoints: bool = False) -> int:
    """Dimension of {a : [U_j, a] = 0 for all j}.

    The system stacks the commutator blocks A_j that build the boundary
    maps, so it is the unstarred half of the degree-zero map.  With
    ``include_adjoints`` the starred blocks join it, giving the complex-mode
    degree-zero map up to the order of its row blocks.
    """
    gens = basis.scaled + (basis.scaled_star if include_adjoints else [])
    return carrier_basis.dim - numeric_rank(_commutant_system(gens, carrier_basis))


def _null_basis(M: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(M)
    return vh[_rank(s, M.shape):].conj().T


def fuglede_putnam_check(basis: DifferentialBasis, carrier_basis) -> bool:
    """Whether commuting with the basis forces commuting with the adjoints.

    Compares the null space of a -> ([U_j, a])_j with the null space of the
    system extended by the starred commutators: equal dimensions plus mutual
    containment.
    """
    L1 = _commutant_system(basis.scaled, carrier_basis)
    L2 = np.vstack([L1, _commutant_system(basis.scaled_star, carrier_basis)])
    N1 = _null_basis(L1)
    N2 = _null_basis(L2)
    if N1.shape[1] != N2.shape[1]:
        return False
    if N1.shape[1] == 0:
        return True
    return float(np.abs(L2 @ N1).max()) <= _TOL


def c00_membership(a: QElement):
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
                 if abs(1.0 - np.exp(1j * theta * e[1])) > _TOL]
    return (not witnesses), witnesses

