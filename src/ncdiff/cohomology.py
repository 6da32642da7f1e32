"""Boundary-map assembly and kernel/rank computation for the form complexes.

Degree-k forms over a finite-dimensional (or truncated) carrier span a
vector space with basis {covector index} x {key}, for a key set of the
carrier (``MatrixCarrierBasis``, ``QMonomialBasis``, ``GraphCarrierBasis``,
each in its carrier's module and exported here).  The derivative is a sum of
inner derivations, so every rank report is a rank of one Koszul complex over
a chosen set of covector families, which :func:`_koszul_ranks` computes:
``deRham_dims`` takes all the families; a Dolbeault row at unstarred degree p
is C(n, p) copies of the complex over the starred family, since the starred
half-derivative carries dU_I along with the sign (-1)^p; the commutant
dimension is D minus the rank of its degree-0 map.  The acting elements are
``basis.diagonal``, which reads a rotated matrix basis as diag(c_j lambda_j)
in its joint eigenbasis Q, since a -> Q^* a Q is unitary and keeps every
singular value; their weights are one read of the held symbol on the key set,
``basis.symbol.on(keyset).weights(families)``, as the heat flow reads lambda.

The symbol route.  When every weight lands its key on itself (diagonal
matrices, scaled vertex projections), key k carries one weight vector v(k)
in C^N, one entry per covector.  On the forms over k the degree-k map is the
exterior product v(k) ^ . on Lambda^k C^N, whose nonzero singular values all
equal |v(k)|, with multiplicity C(N-1, k): its Hodge Laplacian is
|v(k)|^2 = F lambda(k) times the identity, for the heat symbol lambda and F
covector families (Eckmann's combinatorial Hodge theorem for a Koszul
complex).  So rank d_k = C(N-1, k) #{k : |v(k)| > cut}, and neither a
covector index nor a map is built.  The cut is N D eps max|v|, the rule of the
degree-0 map a -> (x_j a)_j on a D-dimensional carrier, which is the symbol
itself, and so it is the same for every Dolbeault row.  The rule of the whole
degree-k map, max(shape) eps max|v|, grows with the form space: for the M_64
projections max(shape) reaches C(64, 32) 4096 = 7.5e21, a cut of 1.7e6 max|v|,
above every weight, which would report the middle ranks as 0.

The triplet route, for every other basis and the oracle of the first.  Every
map is held as triplets ``(rows, cols, vals, shape)`` of its nonzeros.  A
complex builds A_j, the map a -> [x_j, a] (and that of each starred element),
once, from x_j's weights or else from the commutator of every carrier element;
each of its maps offsets the A_j with the exterior signs of the basis's
front-merge table into the covector blocks they reach.  Ranks count singular
values above max(shape) * eps * sigma_max of the whole map.  A map whose rows
(or columns) hold one entry each, such as d_0 and d_1 of a truncated q-lattice
report over single monomials, has orthogonal columns (rows): their norms are
its singular values, and no SVD is taken.  Any other map takes one SVD per
connected component of its nonzero pattern (blocks of one shape share a
stacked SVD).  A Dolbeault row is ranked as one copy, so its cut is C(n, p)
times smaller than that of the whole row map.  Truncated q-lattice carriers,
whose monomials shift keys, always take this route, with nested exponent balls
so the maps never leave their codomain; the inner maps keep the outer triplets
inside the smaller balls.  ``boundary_matrix`` and ``dolbeault_matrix`` stay in
matrix units and, like ``numeric_rank``, are dense.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

import numpy as np

from .carrier import TruncationError, _new_tuple, _Node
from .forms import BasisModeError, DifferentialBasis, Symbol
from .graph_algebra import GraphCarrierBasis
from .matrix_algebra import MatrixCarrierBasis
from .qlattice import QAlgebraSpec, QElement, QMonomialBasis, _angle


def _dolbeault_indices(n: int, p: int, q: int) -> list:
    """Covector indices of bidegree (p, q), canonical order."""
    if p > n or q > n or p < 0 or q < 0:
        return []
    return [(I, J) for I in itertools.combinations(range(n), p)
            for J in itertools.combinations(range(n), q)]


def _form_indices(n: int, k: int, families: tuple) -> list:
    """Covector indices of total degree k over ``families``, canonical order."""
    if len(families) == 2:
        return [idx for p in range(k + 1) for idx in _dolbeault_indices(n, p, k - p)]
    return _dolbeault_indices(n, 0, k) if families[0] else _dolbeault_indices(n, k, 0)


def _ad_matrix(x, elems: list, codomain) -> tuple:
    """Triplets of a -> [x, a] (the map ``x.ad()``): column i holds [x, elems[i]]
    in ``codomain``.  A commutator that overflows raises ValueError, not a
    numpy warning.  This per-key route is the oracle of the diagonal one."""
    act = x.ad()
    rows, cols, vals = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, b in enumerate(elems):
            idx, v = codomain.entries(act(b))
            rows += idx
            cols += [i] * len(idx)
            vals += v
    vals = np.array(vals, dtype=complex)
    if not np.isfinite(vals).all():
        i = np.flatnonzero(~np.isfinite(vals))[0]
        raise ValueError(f"[{x}, {elems[cols[i]]}] has the non-finite coefficient {vals[i]}")
    keep = vals != 0
    return (np.array(rows, dtype=np.intp)[keep], np.array(cols, dtype=np.intp)[keep],
            vals[keep], (codomain.dim, len(elems)))


def _commutator_blocks(symbol: Symbol, families: tuple, domain, codomain=None,
                       weights=None) -> list:
    """(starred, j, A_j) per element x_j of the ``symbol`` and per family of ``families``.

    A_j holds the triplets of a -> [x_j, a] (a -> [x_j^*, a] when starred)
    from ``domain`` into ``codomain`` (default: the same), read from x_j's
    ``weights`` on the domain's keys (by default those of ``symbol``).  An
    element without them, or with an entry that leaves the codomain or is
    not finite, takes :func:`_ad_matrix`, so that both routes raise alike.
    """
    codomain, acting = codomain or domain, symbol.elements
    weights = symbol.on(domain).weights(families) if weights is None else weights
    codomain._check(domain.parent)  # raises as a codomain of another size does
    elements, shape = functools.cache(domain.elements), (codomain.dim, domain.dim)
    blocks = []
    for (starred, j), hit in zip(itertools.product(families, range(len(acting))), weights):
        if hit is not None:
            rows, w = codomain._rows(hit[0]), np.asarray(hit[1], dtype=complex)
            cols = np.flatnonzero(w)  # keeps a nan
            if not (rows[cols] < 0).any() and np.isfinite(w[cols]).all():
                blocks.append((starred, j, (rows[cols], cols, w[cols], shape)))
                continue
        x = acting[j].adjoint() if starred else acting[j]
        blocks.append((starred, j, _ad_matrix(x, elements(), codomain)))
    return blocks


def _assemble(basis: DifferentialBasis, blocks: list, out_indices: list,
              in_indices: list) -> tuple:
    """Triplets of the map from covector indices ``in_indices`` to ``out_indices``:
    block (out, in) is +-A_j where wedging A_j's covector in front of ``in``
    gives ``out``, as ``basis.front_merges`` records it."""
    h, w = blocks[0][2][3]
    out_pos = {idx: i for i, idx in enumerate(out_indices)}
    merges = [basis.front_merges(I, J) for I, J in in_indices]
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, complex))]
    for starred, j, (rows, cols, vals, _) in blocks:
        hits = [(c, out_pos[hit[1]], hit[0]) for c, merge in enumerate(merges)
                if (hit := merge[starred][j]) is not None]
        if not hits:
            continue
        c_in, c_out, sign = np.array(hits).T
        k = len(vals)
        v = np.tile(vals, len(hits))
        np.negative(v, out=v, where=np.repeat(sign < 0, k))
        parts.append((np.tile(rows, len(hits)) + np.repeat(c_out * h, k),
                      np.tile(cols, len(hits)) + np.repeat(c_in * w, k), v))
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    return rows, cols, vals, (h * len(out_indices), w * len(in_indices))


def _dense(t: tuple) -> np.ndarray:
    M = np.zeros(t[3], dtype=complex)
    M[t[0], t[1]] = t[2]
    return M


def boundary_matrix(k: int, basis: DifferentialBasis, carrier_basis,
                    codomain_basis=None) -> np.ndarray:
    """The derivative in degree k as an explicit matrix.

    ``carrier_basis`` coordinates the domain coefficients; ``codomain_basis``
    (default: the same) must be large enough to hold every image coefficient,
    otherwise a :class:`TruncationError` is raised.
    """
    n, families = basis.size, basis.families
    blocks = _commutator_blocks(basis.scaled_symbol, families, carrier_basis, codomain_basis)
    return _dense(_assemble(basis, blocks, _form_indices(n, k + 1, families),
                            _form_indices(n, k, families)))


def dolbeault_matrix(p: int, q: int, basis: DifferentialBasis, carrier_basis,
                     codomain_basis=None) -> np.ndarray:
    """The starred half-derivative on (p, q) forms as an explicit matrix."""
    if basis.mode != "complex":
        raise BasisModeError("type decomposition needs complex mode")
    n = basis.size
    blocks = _commutator_blocks(basis.scaled_symbol, (True,), carrier_basis, codomain_basis)
    return _dense(_assemble(basis, blocks, _dolbeault_indices(n, p, q + 1),
                            _dolbeault_indices(n, p, q)))


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


def _line_norms(rows: np.ndarray, cols: np.ndarray, size: np.ndarray):
    """Singular values of triplets with moduli ``size`` when no row holds two
    entries: the columns have disjoint supports, so they are orthogonal and
    the singular values are their norms (rows and columns swapped alike).
    None for other maps, or where a nonzero modulus squares out of range."""
    if ((size == 0) | ((size >= 1e-150) & (size <= 1e150))).all():
        for lines, other in ((cols, rows), (rows, cols)):
            if np.bincount(other).max() < 2:
                return np.sqrt(np.bincount(lines, size * size))
    return None


def _triplet_rank(t: tuple) -> int:
    """Rank of triplets (no repeated (row, col)), cut at max(shape) * eps * sigma_max.

    ValueError for a non-finite entry.  Failing :func:`_line_norms`, the rows
    and columns split into the connected components of the bipartite graph
    of the entries, so the map is block diagonal up to permutations and its
    singular values are those of the blocks.  Blocks of one shape share a
    stacked SVD; the cut uses the global sigma_max and shape, as a dense SVD
    would.
    """
    rows, cols, values, (m, n) = t
    if not len(rows):
        return 0
    if not np.isfinite(values).all():
        raise ValueError("map entries must be finite")
    if (norms := _line_norms(rows, cols, np.abs(values))) is not None:
        return _rank(norms, (m, n))
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
    sigmas = []
    for g, shape in enumerate(shapes):
        stack = np.zeros((counts[g], *divmod(shape, base)), dtype=values.dtype)
        hit = group[edge_comp] == g
        stack[slot[edge_comp[hit]], row_pos[row_of[hit]], col_pos[col_of[hit]]] = values[hit]
        sigmas.append(np.linalg.svd(stack, compute_uv=False).ravel())
    return _rank(np.concatenate(sigmas), (m, n))


def numeric_rank(M: np.ndarray) -> int:
    """Rank of a dense matrix by the rule of the triplet rank; ValueError if not finite."""
    rows, cols = np.nonzero(M)
    return _triplet_rank((rows, cols, M[rows, cols], M.shape))


class DegreeRow(_Node):
    def __new__(cls, k: int, dim_ker: int, rank_prev: int, h_dim: int):
        return _new_tuple(cls, (cls, k, dim_ker, rank_prev, h_dim))


class ComplexReport(_Node):
    """Per-degree kernel/rank/cohomology dimensions for one chain of maps."""

    def __new__(cls, basis_label: str, carrier_description: str, truncation: dict | None,
                degrees: list):
        return _new_tuple(cls, (cls, basis_label, carrier_description, truncation, degrees))

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


def _ranks(basis: DifferentialBasis, blocks: list, indices: list) -> list[int]:
    """Rank of each map from covector indices indices[k] to indices[k + 1]."""
    return [_triplet_rank(_assemble(basis, blocks, out, inp))
            for inp, out in zip(indices, indices[1:])]


def _chain_report(basis_label: str, carrier_basis, sizes: list, ranks: list,
                  ranks_in: list, truncation: dict | None = None) -> ComplexReport:
    """Rows of degrees 0..len(ranks)-1: degree k spans sizes[k] covector indices
    x carrier_basis, and its outgoing and incoming maps have ranks ranks[k]
    and ranks_in[k]."""
    rows = []
    for k, (rank, rank_in) in enumerate(zip(ranks, ranks_in)):
        dim_ker = sizes[k] * carrier_basis.dim - rank
        rows.append(DegreeRow(k, dim_ker, rank_in, dim_ker - rank_in))
    return ComplexReport(basis_label, carrier_basis.description, truncation, rows)


def _top_degree(basis: DifferentialBasis, max_degree: int | None) -> int:
    top = basis.top_degree if max_degree is None else max_degree
    if top < 0:
        raise ValueError(f"max_degree must be nonnegative, got {top}")
    if top > basis.top_degree:  # every form of higher degree is zero
        raise ValueError(f"max_degree {top} is above the basis's top degree {basis.top_degree}")
    return top


def _rank_symbol(weights: list, keys):
    """``(|v|, cut)``: |v| the norm of the ``weights`` of all F families per
    key (|v|^2 = F lambda), the cut N D eps max|v| for N weights on D keys;
    None unless every action hands its ``keys`` back and |v| is finite."""
    if any(hit is None or hit[0] is not keys for hit in weights):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        v = functools.reduce(np.hypot, (np.abs(w) for _, w in weights))
    if np.isfinite(v).all():
        return v, len(weights) * len(keys) * np.finfo(float).eps * v.max(initial=0.0)


def _koszul_ranks(basis: DifferentialBasis, carrier_basis, families: tuple,
                  top: int) -> list[int]:
    """Ranks of d_0..d_top of the complex of forms over the covectors of
    ``families``, with the elements of ``basis.diagonal`` acting: by the
    rank symbol |v| when :func:`_rank_symbol` gives it, else by assembled
    maps and block SVDs, both from one read of the held symbol on the key set."""
    weights = basis.symbol.on(carrier_basis).weights(families)
    if (moduli := _rank_symbol(weights, carrier_basis.keys)) is not None:
        r = int((moduli[0] > moduli[1]).sum())
        return [comb(len(weights) - 1, k) * r for k in range(top + 1)]
    indices = [_form_indices(len(basis.diagonal), k, families) for k in range(top + 2)]
    blocks = _commutator_blocks(basis.symbol, families, carrier_basis, weights=weights)
    return _ranks(basis, blocks, indices)


def deRham_dims(basis: DifferentialBasis, carrier_basis,
                max_degree: int | None = None) -> ComplexReport:
    """De Rham dimensions over an exact (untruncated) carrier; a rotated matrix
    basis is read in the coordinates of its eigenbasis."""
    top = _top_degree(basis, max_degree)
    ranks = _koszul_ranks(basis, carrier_basis, basis.families, top)
    N = basis.size * len(basis.families)
    return _chain_report(basis.label, carrier_basis, [comb(N, k) for k in range(top + 2)],
                         ranks, [0] + ranks)


def dolbeault_dims(p: int, basis: DifferentialBasis, carrier_basis) -> ComplexReport:
    """Dolbeault dimensions of the row at fixed unstarred degree p.

    The starred half-derivative carries dU_I along with the sign (-1)^p, so
    the row is C(n, p) copies of the complex over the starred covectors: none
    when p lies outside 0..n.
    """
    if basis.mode != "complex":
        raise BasisModeError("type decomposition needs complex mode")
    n = basis.size
    unstarred = comb(n, p) if p >= 0 else 0  # covector sets I of size p
    ranks = ([unstarred * r for r in _koszul_ranks(basis, carrier_basis, (True,), n)]
             if unstarred else [0] * (n + 1))
    return _chain_report(basis.label, carrier_basis,
                         [unstarred * comb(n, q) for q in range(n + 2)], ranks, [0] + ranks)


def _max_basis_degree(basis: DifferentialBasis) -> int:
    return max((abs(v) for x in basis.scaled for e in x.terms for v in e), default=0)


def deRham_dims_truncated(basis: DifferentialBasis, spec: QAlgebraSpec, K: int,
                          max_degree: int | None = None) -> ComplexReport:
    """De Rham dimensions on a truncated q-lattice carrier.

    Bumping a coefficient by a basis commutator can raise exponents by at
    most the basis degree d, so the chain uses the nested balls
    K-2d -> K-d -> K: the degree-k kernel is computed on the K-d ball and
    the incoming rank on the K-2d ball, keeping every assembled map inside
    its stated codomain.  The K-2d -> K-d blocks keep the entries of the
    K-d -> K ones inside the smaller balls, whose rows of the larger balls'
    keys are -1 for a dropped key.  Cohomology numbers inherit the truncation
    and are reported with that provenance.
    """
    top = _top_degree(basis, max_degree)
    d = _max_basis_degree(basis)
    if K < 2 * d:
        raise TruncationError(f"truncation K={K} too small for basis degree {d}")
    big, mid, small = (QMonomialBasis(spec, K - m * d) for m in (0, 1, 2))
    blocks = _commutator_blocks(basis.scaled_symbol, basis.families, mid, big)
    indices = [_form_indices(basis.size, k, basis.families) for k in range(top + 2)]
    ranks = _ranks(basis, blocks, indices)
    row_of, col_of = mid._rows(big.keys), small._rows(mid.keys)
    inner = []
    for starred, j, (rows, cols, vals, _) in blocks:
        rows, cols = row_of[rows], col_of[cols]
        keep = (rows >= 0) & (cols >= 0)
        inner.append((starred, j, (rows[keep], cols[keep], vals[keep], (mid.dim, small.dim))))
    ranks_in = [0] + _ranks(basis, inner, indices[:top + 1])
    return _chain_report(basis.label, mid, [len(i) for i in indices], ranks, ranks_in,
                         {"K": K, "kernel_domain_K": K - d, "image_domain_K": K - 2 * d})


# -- direct degree-zero routes ----------------------------------------------

# the phase test of c00_membership
_TOL = 1e-8


def commutant_kernel_dimension(basis: DifferentialBasis, carrier_basis,
                               include_adjoints: bool = False) -> int:
    """Dimension of {a : [U_j, a] = 0 for all j}.

    The system is the degree-zero map of the complex over the unstarred
    covectors (in eigen-coordinates for a rotated matrix basis), and with
    ``include_adjoints`` over both families, the complex-mode degree-zero
    map.
    """
    families = (False, True) if include_adjoints else (False,)
    return carrier_basis.dim - _koszul_ranks(basis, carrier_basis, families, 0)[0]


def fuglede_putnam_check(basis: DifferentialBasis, carrier_basis) -> bool:
    """Whether commuting with the basis forces commuting with the adjoints.

    The commutant of {U_j, U_j^*} lies inside that of {U_j}, so the two are
    equal exactly when their dimensions are.
    """
    return (commutant_kernel_dimension(basis, carrier_basis)
            == commutant_kernel_dimension(basis, carrier_basis, include_adjoints=True))


def c00_membership(a: QElement):
    """Coefficient test for membership in the commutant of U on a 2-torus.

    [U, U^k V^l] = (e^{i phi_1} - e^{i phi_2}) U^{k+1} V^l with the angles of
    U U^k V^l and U^k V^l U, so the element commutes with U exactly when every
    stored coefficient sits where the two phases agree.  Returns
    ``(member, witnesses)`` with the offending (k, l) pairs.
    """
    spec = a.spec
    if spec.generator_count != 2:
        raise ValueError("membership test needs a two-generator presentation")
    u = (1, 0)
    witnesses = [e for e in sorted(a.terms) if abs(
        np.exp(1j * _angle(spec, u, e)) - np.exp(1j * _angle(spec, e, u))) > _TOL]
    return (not witnesses), witnesses

