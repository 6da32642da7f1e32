import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ncdiff.cohomology as C
import ncdiff.dirichlet as D
import ncdiff.forms as F
from ncdiff.forms import DifferentialBasis, DifferentialForm
from ncdiff.graph_algebra import vertex_projection
from ncdiff.matrix_algebra import MatElement, projection_basis
from ncdiff.carrier import commutator
from ncdiff.qlattice import QElement, clock_shift_rep, heisenberg_spec, torus_spec
from ncdiff.testing import random_qelement

from conftest import star_tree


@pytest.fixture(scope="module")
def m2_setup():
    basis = DifferentialBasis(projection_basis(2), mode="selfadjoint", label="M_2 p")
    return basis, C.MatrixCarrierBasis(2)


@pytest.fixture(scope="module")
def clock7_setup():
    spec = torus_spec(2 * math.pi * 3 / 7)
    img = clock_shift_rep(spec, QElement.generator(spec, 1))
    basis = DifferentialBasis([img], label="M_7 clock")
    return basis, C.MatrixCarrierBasis(7)


def _triplet(report):
    """``report`` with the rank symbol refusing every basis, so that it
    takes the triplet route."""
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(C, "_rank_symbol", lambda *_: None)
            return report(*args, **kwargs)
    return run


def _symbol(basis, carrier, families):
    """``(|v|, cut)`` of the symbol route over ``carrier``, or None off it."""
    return C._rank_symbol(basis.symbol.on(carrier).weights(families), carrier.keys)


def test_boundary_degree0_rank(m2_setup):
    basis, carrier = m2_setup
    m0 = C.boundary_matrix(0, basis, carrier)
    assert m0.shape == (8, 4)
    assert C.numeric_rank(m0) == 2  # kernel = diagonal matrices


def test_boundary_top_degree_zero_map(m2_setup):
    basis, carrier = m2_setup
    m_top = C.boundary_matrix(basis.top_degree, basis, carrier)
    assert m_top.shape[0] == 0 or np.abs(m_top).max() == 0.0


def test_boundary_composites_vanish(m2_setup):
    basis, carrier = m2_setup
    for k in range(basis.top_degree):
        mk = C.boundary_matrix(k, basis, carrier)
        mk1 = C.boundary_matrix(k + 1, basis, carrier)
        prod = mk1 @ mk
        assert prod.size == 0 or np.abs(prod).max() <= 1e-10


def _direct_m2_boundaries():
    """Independent assembly of the M_2 projection-basis complex with raw numpy."""
    n = 2
    units = [np.zeros((n, n), dtype=complex) for _ in range(4)]
    for idx, (i, j) in enumerate(itertools.product(range(n), repeat=2)):
        units[idx][i, j] = 1.0
    ps = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]

    def comm(p, a):
        return p @ a - a @ p

    # delta_0: a -> ([p_1,a], [p_2,a])
    d0 = np.zeros((8, 4), dtype=complex)
    for col, a in enumerate(units):
        d0[0:4, col] = comm(ps[0], a).reshape(-1)
        d0[4:8, col] = comm(ps[1], a).reshape(-1)
    # delta_1: (a dp1 + b dp2) -> ([p_1,b] - [p_2,a]) dp1^dp2
    d1 = np.zeros((4, 8), dtype=complex)
    for col, a in enumerate(units):
        d1[:, col] = -comm(ps[1], a).reshape(-1)
        d1[:, 4 + col] = comm(ps[0], a).reshape(-1)
    return d0, d1


def test_m2_h1_against_direct_assembly(m2_setup):
    basis, carrier = m2_setup
    d0_direct, d1_direct = _direct_m2_boundaries()
    r0 = C.numeric_rank(d0_direct)
    r1 = C.numeric_rank(d1_direct)
    assert r0 == 2
    dim_ker1 = 8 - r1
    assert dim_ker1 == 6
    report = C.deRham_dims(basis, carrier)
    assert report.h(0) == 2
    assert report.h(1) == dim_ker1 - r0 == 4
    # the module's assembled matrices have the same ranks
    assert C.numeric_rank(C.boundary_matrix(0, basis, carrier)) == r0
    assert C.numeric_rank(C.boundary_matrix(1, basis, carrier)) == r1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_h0_matrix_algebra(n):
    basis = DifferentialBasis(projection_basis(n), mode="selfadjoint",
                              label=f"M_{n} p")
    carrier = C.MatrixCarrierBasis(n)
    report = C.deRham_dims(basis, carrier, max_degree=0)
    assert report.h(0) == n


def test_h0_contains_basis_algebra(m2_setup):
    # span{p_1..p_n} sits inside ker delta_0
    basis, carrier = m2_setup
    m0 = C.boundary_matrix(0, basis, carrier)
    for p in projection_basis(2):
        assert np.abs(m0 @ carrier.coords(p)).max() < 1e-14


def test_h0_two_assembly_paths_agree(m2_setup, clock7_setup):
    for basis, carrier in (m2_setup, clock7_setup):
        report = C.deRham_dims(basis, carrier, max_degree=0)
        direct = C.commutant_kernel_dimension(basis, carrier, include_adjoints=True)
        assert report.degrees[0].dim_ker == direct


@pytest.mark.parametrize("n", [2, 3])
def test_euler_characteristic_vanishes(n):
    # alternating sums of chain ranks and of cohomology dims both collapse:
    # sum_k (-1)^k n^2 C(n,k) = 0, so the H^k must alternate to zero too
    basis = DifferentialBasis(projection_basis(n), mode="selfadjoint")
    report = C.deRham_dims(basis, C.MatrixCarrierBasis(n))
    assert sum((-1) ** row.k * row.h_dim for row in report.degrees) == 0


def test_graph_carrier_boundary(m2_setup):
    g = star_tree(3)
    basis = DifferentialBasis([vertex_projection(g, v) for v in g.vertices],
                              mode="selfadjoint", label="{p_v}")
    carrier = C.GraphCarrierBasis(g, 2)
    m0 = C.boundary_matrix(0, basis, carrier)
    m1 = C.boundary_matrix(1, basis, carrier)
    assert np.abs(m1 @ m0).max() <= 1e-12


def test_truncated_torus_chain(torus, torus_basis):
    report = C.deRham_dims_truncated(torus_basis, torus, K=4)
    assert report.truncation == {"K": 4, "kernel_domain_K": 3, "image_domain_K": 2}
    assert all(r.h_dim >= 0 for r in report.degrees)
    # degree-0 kernel on the K-d ball: powers of U only
    assert report.degrees[0].dim_ker == 7
    # assembled consecutive maps compose to zero
    mid = C.QMonomialBasis(torus, 3)
    small = C.QMonomialBasis(torus, 2)
    big = C.QMonomialBasis(torus, 4)
    d0 = C.boundary_matrix(0, torus_basis, small, mid)
    d1 = C.boundary_matrix(1, torus_basis, mid, big)
    assert np.abs(d1 @ d0).max() <= 1e-10


def _symbolic_matrix(op, out_indices, in_indices, basis, domain, codomain):
    """Form-operator matrix column by column: op applied to b dU_key, in coordinates."""
    out_pos = {idx: i for i, idx in enumerate(out_indices)}
    rows, cols = codomain.dim, domain.dim
    M = np.zeros((rows * len(out_indices), cols * len(in_indices)), dtype=complex)
    for c, key in enumerate(in_indices):
        for i, b in enumerate(domain.elements()):
            image = op(DifferentialForm(basis, {key: b}))
            for okey, coeff in image.terms.items():
                r = out_pos[okey]
                M[r * rows:(r + 1) * rows, c * cols + i] = codomain.coords(coeff)
    return M


def _oracle_case(case, fixture):
    if case == "M_3 projections":
        return fixture("p_basis3"), C.MatrixCarrierBasis(3), C.MatrixCarrierBasis(3)
    if case == "M_7 clock":
        basis, carrier = fixture("clock7_setup")
        return basis, carrier, carrier
    if case == "torus K 2->3":
        torus = fixture("torus")
        return (fixture("torus_basis"), C.QMonomialBasis(torus, 2),
                C.QMonomialBasis(torus, 3))
    if case == "heisenberg K 1->2":
        heisenberg = fixture("heisenberg")
        return (fixture("heisenberg_basis"), C.QMonomialBasis(heisenberg, 1),
                C.QMonomialBasis(heisenberg, 2))
    g = star_tree(3)
    basis = DifferentialBasis([vertex_projection(g, v) for v in g.vertices],
                              mode="selfadjoint", label="{p_v}")
    return basis, C.GraphCarrierBasis(g, 2), C.GraphCarrierBasis(g, 2)


@pytest.mark.parametrize("case", ["M_3 projections", "M_7 clock", "torus K 2->3",
                                  "heisenberg K 1->2", "star3 graph"])
def test_boundary_matrix_matches_symbolic_delta(case, request):
    # the commutator-block assembly against delta applied column by column
    basis, domain, codomain = _oracle_case(case, request.getfixturevalue)
    n, families = basis.size, basis.families
    for k in range(basis.top_degree + 1):
        expected = _symbolic_matrix(F.delta, C._form_indices(n, k + 1, families),
                                    C._form_indices(n, k, families), basis, domain, codomain)
        got = C.boundary_matrix(k, basis, domain, codomain)
        assert got.shape == expected.shape and np.array_equal(got, expected), k
    assert np.abs(C.boundary_matrix(0, basis, domain, codomain)).max() > 0.0


def test_dolbeault_matrix_matches_symbolic_partial_star(clock7_setup):
    basis, carrier = clock7_setup
    n = basis.size
    for p in (0, 1):
        for q in range(n + 1):
            expected = _symbolic_matrix(F.partial_star, C._dolbeault_indices(n, p, q + 1),
                                        C._dolbeault_indices(n, p, q), basis,
                                        carrier, carrier)
            got = C.dolbeault_matrix(p, q, basis, carrier)
            assert got.shape == expected.shape and np.array_equal(got, expected), (p, q)
    assert np.abs(C.dolbeault_matrix(1, 0, basis, carrier)).max() > 0.0


def test_truncation_escape_raises(torus, torus_basis):
    small = C.QMonomialBasis(torus, 1)
    with pytest.raises(C.TruncationError):
        C.boundary_matrix(0, torus_basis, small, small)
    with pytest.raises(C.TruncationError):
        C.deRham_dims_truncated(torus_basis, torus, K=1)


def test_codomain_of_another_kind_or_parent_raises(torus, torus_basis, p_basis3):
    # every coordinate basis asks its parent element: another kind of element
    # and another presentation of the same arity are ValueErrors, not an
    # AttributeError, a TypeError, an escape or a silent acceptance
    domain = C.QMonomialBasis(torus, 2)
    cases = [
        (torus_basis, domain, C.MatrixCarrierBasis(3),
         "a QElement has no coordinates in the M_3 matrix units"),
        (torus_basis, domain, C.GraphCarrierBasis(star_tree(3), 1),
         "a QElement has no coordinates in the graph terms"),
        (p_basis3, C.MatrixCarrierBasis(3), domain,
         "a MatElement has no coordinates in the torus"),
        (torus_basis, domain, C.QMonomialBasis(torus_spec(0.3), 2),
         "elements live over different presentations"),
    ]
    for basis, carrier, codomain, message in cases:
        with pytest.raises(ValueError, match=message) as got:
            C.boundary_matrix(0, basis, carrier, codomain)
        assert not isinstance(got.value, C.TruncationError)


def test_dolbeault_rows(clock7_setup):
    basis, carrier = clock7_setup
    for p in (0, 1):
        report = C.dolbeault_dims(p, basis, carrier)
        m0 = C.dolbeault_matrix(p, 0, basis, carrier)
        m1 = C.dolbeault_matrix(p, 1, basis, carrier)
        assert m1.shape[0] == 0 or np.abs(m1 @ m0).max() <= 1e-10
        assert report.degrees[0].dim_ker == 7


def test_dolbeault_rows_outside_0_to_n_are_zero(clock7_setup, monkeypatch):
    # C(n, p) = 0 copies of the starred complex: nothing is ranked
    def refuse(*_):
        raise AssertionError("the starred complex was built")

    monkeypatch.setattr(C, "_koszul_ranks", refuse)
    for basis, carrier in (clock7_setup, (_clock_basis((1, 1)), C.MatrixCarrierBasis(12))):
        n = basis.size
        zero = [{"k": k, "dim_ker": 0, "rank_prev": 0, "h_dim": 0} for k in range(n + 1)]
        for p in (-1, n + 1):
            assert C.dolbeault_dims(p, basis, carrier).to_json() == {
                "basis": basis.label, "carrier": carrier.description,
                "truncation": None, "degrees": zero}


def test_commutant_dimension_coincidence(clock7_setup):
    # dim C00 = dim HC00 = dim H^0 for a normal finite-dimensional basis
    basis, carrier = clock7_setup
    h0 = C.deRham_dims(basis, carrier, max_degree=0).h(0)
    c00 = C.commutant_kernel_dimension(basis, carrier, include_adjoints=True)
    hc00 = C.dolbeault_dims(0, basis, carrier).degrees[0].dim_ker
    unstarred_only = C.commutant_kernel_dimension(basis, carrier,
                                                  include_adjoints=False)
    assert h0 == c00 == hc00 == unstarred_only == 7


def test_fuglede_putnam_checks(m2_setup, clock7_setup, rng):
    for basis, carrier in (m2_setup, clock7_setup):
        assert C.fuglede_putnam_check(basis, carrier)
    # random normal element of M_4: unitary conjugate of a diagonal
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(x)
    normal = MatElement(q @ np.diag([1.0, 1j, -1.0, 0.5 + 0.5j]) @ q.conj().T)
    basis4 = DifferentialBasis([normal], label="random normal")
    assert C.fuglede_putnam_check(basis4, C.MatrixCarrierBasis(4))


def _null_space_fuglede_putnam(basis, carrier):
    """The null-space route: null bases of a -> ([U_j, a])_j and of the system
    extended by the starred commutators, by dense SVD with singular vectors;
    equal dimensions plus the containment L2 N1 = 0."""
    elems = carrier.elements()
    L1 = np.vstack([_densify(C._ad_matrix(x, elems, carrier)) for x in basis.scaled])
    L2 = np.vstack([L1] + [_densify(C._ad_matrix(x, elems, carrier))
                           for x in basis.scaled_star])

    def null_basis(M):
        _, s, vh = np.linalg.svd(M)
        return vh[_dense_rank(M):].conj().T

    N1, N2 = null_basis(L1), null_basis(L2)
    if N1.shape[1] != N2.shape[1]:
        return False
    return N1.shape[1] == 0 or float(np.abs(L2 @ N1).max()) <= 1e-8


def test_fuglede_putnam_matches_null_space_route(m2_setup, clock7_setup, rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(x)
    normal = MatElement(q @ np.diag([1.0, 1j, -1.0, 0.5 + 0.5j]) @ q.conj().T)
    g = star_tree(3)
    cases = [m2_setup, clock7_setup,
             (DifferentialBasis([normal], label="random normal"), C.MatrixCarrierBasis(4)),
             (DifferentialBasis([vertex_projection(g, v) for v in g.vertices],
                                mode="selfadjoint"), C.GraphCarrierBasis(g, 2))]
    for basis, carrier in cases:
        assert C.fuglede_putnam_check(basis, carrier) is \
            _null_space_fuglede_putnam(basis, carrier) is True
    # a nilpotent N commutes with span{1, N} but only the scalars commute with
    # N and N^* too; no DifferentialBasis admits it, so it comes bare, with
    # the merge table of a one-element basis
    N = MatElement(np.array([[0.0, 1.0], [0.0, 0.0]]))
    one = DifferentialBasis([MatElement.identity(2)], mode="selfadjoint")
    bare = SimpleNamespace(scaled=[N], scaled_star=[N.adjoint()], diagonal=[N],
                           symbol=F.Symbol([N]), front_merges=one.front_merges)
    carrier = C.MatrixCarrierBasis(2)
    assert C.commutant_kernel_dimension(bare, carrier) == 2
    assert C.commutant_kernel_dimension(bare, carrier, include_adjoints=True) == 1
    assert C.fuglede_putnam_check(bare, carrier) is \
        _null_space_fuglede_putnam(bare, carrier) is False


def test_c00_membership_branches(rng):
    spec = torus_spec(1.0)
    ok, wit = C.c00_membership(QElement(spec, {(2, 0): 3.0, (-1, 0): 1.0}))
    assert ok and wit == []
    ok, wit = C.c00_membership(QElement.generator(spec, 2))
    assert not ok and wit == [(0, 1)]
    # theta = pi p / q branches: accepted powers of V
    spec37 = torus_spec(math.pi * 3 / 7)
    assert C.c00_membership(QElement.monomial(spec37, (0, 14)))[0]
    assert not C.c00_membership(QElement.monomial(spec37, (0, 7)))[0]
    spec27 = torus_spec(math.pi * 2 / 7)
    assert C.c00_membership(QElement.monomial(spec27, (0, 7)))[0]
    assert C.c00_membership(QElement.monomial(spec27, (3, -14)))[0]
    assert not C.c00_membership(QElement.monomial(spec27, (3, -13)))[0]


def test_c00_membership_matches_commutator(rng):
    # coefficient criterion == [U, a] = 0, on random truncated elements
    for theta in (1.0, math.pi * 3 / 7, math.pi * 2 / 7):
        spec = torus_spec(theta)
        U = QElement.generator(spec, 1)
        hits = 0
        for i in range(200):
            a = random_qelement(spec, rng, max_exp=15, n_terms=3)
            if i % 3 == 0:  # force some members into the battery
                a = QElement(spec, {(e[0], 0): c for e, c in a.terms.items()})
            member, _ = C.c00_membership(a)
            oracle = commutator(U, a).norm() <= 1e-10
            assert member == oracle
            hits += member
        assert hits > 0


def test_c00_wrong_shape(heisenberg):
    with pytest.raises(ValueError):
        C.c00_membership(QElement.one(heisenberg))


def test_report_json(m2_setup):
    basis, carrier = m2_setup
    report = C.deRham_dims(basis, carrier, max_degree=1)
    d = report.to_json()
    assert set(d) == {"basis", "carrier", "truncation", "degrees"}
    assert d["degrees"][0] == {"k": 0, "dim_ker": 2, "rank_prev": 0, "h_dim": 2}


# -- rank by connected blocks against the dense rule --------------------------


def _dense_rank(M):
    """The rule on one dense SVD: sigma > max(shape) * eps * sigma_max."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int((s > max(M.shape) * np.finfo(float).eps * s[0]).sum())


def _densify(t):
    """The dense matrix of triplets (rows, cols, vals, shape); repeats add up."""
    rows, cols, vals, shape = t
    M = np.zeros(shape, dtype=complex)
    np.add.at(M, (rows, cols), vals)
    return M


@st.composite
def permuted_block_diagonals(draw):
    """(M, rank) for a row- and column-permuted block-diagonal M.

    Block j is a product of Gaussian factors of inner size r_j <= min(shape),
    so it has rank r_j (r_j = 0 leaves zero rows and columns), scaled by 1 or
    1e-6; the first shape repeats so that blocks share a stacked SVD, and zero
    rows and columns pad the matrix.
    """
    dims = st.integers(1, 4)
    shapes = draw(st.lists(st.tuples(dims, dims), max_size=5))
    shapes += shapes[:1] * draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pad_rows, pad_cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    M = np.zeros((sum(h for h, _ in shapes) + pad_rows,
                  sum(w for _, w in shapes) + pad_cols), dtype=complex)
    i = j = rank = 0
    for h, w in shapes:
        r = draw(st.integers(0, min(h, w)))
        scale = draw(st.sampled_from([1.0, 1e-6]))
        left = rng.standard_normal((h, r)) + 1j * rng.standard_normal((h, r))
        right = rng.standard_normal((r, w)) + 1j * rng.standard_normal((r, w))
        M[i:i + h, j:j + w] = scale * left @ right
        i, j, rank = i + h, j + w, rank + r
    return M[rng.permutation(M.shape[0])][:, rng.permutation(M.shape[1])], rank


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=permuted_block_diagonals())
def test_numeric_rank_matches_dense_rule(case):
    M, rank = case
    assert C.numeric_rank(M) == _dense_rank(M) == rank


@st.composite
def block_diagonal_triplets(draw):
    """(triplets, rank) of a permuted block diagonal, in shuffled order, with
    explicit zero values at some of its zero positions."""
    M, rank = draw(permuted_block_diagonals())
    rows, cols = np.nonzero(M)
    zr, zc = np.nonzero(M == 0)
    zeros = draw(st.lists(st.integers(0, max(len(zr) - 1, 0)), unique=True,
                          max_size=min(len(zr), 8)))
    rows, cols = np.concatenate([rows, zr[zeros]]), np.concatenate([cols, zc[zeros]])
    order = np.array(draw(st.permutations(range(len(rows)))), dtype=np.intp)
    return (rows[order], cols[order], M[rows, cols][order], M.shape), rank


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=block_diagonal_triplets())
def test_triplet_rank_matches_dense_rule(case):
    t, rank = case
    assert C._triplet_rank(t) == _dense_rank(_densify(t)) == rank


def test_triplet_rank_edge_cases():
    empty = np.zeros(0, dtype=np.intp)
    for shape in [(0, 4), (4, 0), (0, 0), (3, 5)]:
        assert C._triplet_rank((empty, empty, np.zeros(0, dtype=complex), shape)) == 0
    # explicit zeros alone have rank 0
    assert C._triplet_rank((np.array([0, 2]), np.array([1, 1]), np.zeros(2, dtype=complex),
                            (3, 5))) == 0


def test_numeric_rank_edge_cases():
    for shape in [(0, 4), (4, 0), (0, 0), (3, 5)]:
        assert C.numeric_rank(np.zeros(shape, dtype=complex)) == 0
    # 1e-12 sits far above the cut 20 * eps * 1 and is kept
    M = np.zeros((20, 20), dtype=complex)
    M[3, 17], M[11, 2] = 1.0, 1e-12
    assert C.numeric_rank(M) == _dense_rank(M) == 2
    # the cut uses the global sigma_max: a block of its own shape whose only
    # sigma is 1e-17 still falls below it
    M[5, [7, 9]] = 1e-17
    assert C.numeric_rank(M) == _dense_rank(M) == 2


# -- orthogonal lines: ranks from line norms, without an SVD ---------------------


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes of the arrays passed to ``np.linalg.svd`` while the test runs."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: calls.append(
        np.shape(a)) or svd(a, *args, **kwargs))
    return calls


@st.composite
def one_entry_rows(draw):
    """Triplets in shuffled order in which no row holds two entries: each
    column scaled by 1, 1e-6 or 1e-17 (beside unit columns, below the cut),
    with explicit zeros among the values."""
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.permutation(h)[:draw(st.integers(0, h))]
    cols = np.array(draw(st.lists(st.integers(0, w - 1), min_size=len(rows),
                                  max_size=len(rows))), dtype=np.intp)
    scales = np.array(draw(st.lists(st.sampled_from([1.0, 1e-6, 1e-17]), min_size=w,
                                    max_size=w)))
    vals = (rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))) * scales[cols]
    vals[np.array(draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))),
                  dtype=bool)] = 0
    return rows.astype(np.intp), cols, vals, (h, w)


@pytest.mark.parametrize("swap", [False, True], ids=["one per row", "one per column"])
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=one_entry_rows())
@example(t=(np.array([2, 0, 1]), np.array([1, 0, 1]), np.array([0, 1, 1e-17], dtype=complex),
            (3, 2)))  # a 1e-17 line, below the cut, beside a unit line
def test_orthogonal_lines_match_dense_rule(swap, t, svd_calls):
    rows, cols, vals, (h, w) = t
    if swap:
        rows, cols, vals, (h, w) = cols, rows, vals, (w, h)
    t = rows, cols, vals, (h, w)
    svd_calls.clear()
    assert C._triplet_rank(t) == _dense_rank(_densify(t))
    assert svd_calls == [_densify(t).shape]  # the dense rule's alone


@pytest.mark.parametrize("exponent", [*range(-150, 150, 25), 149])
def test_line_norms_are_the_singular_values(exponent):
    # moduli in [1e-150, 1e150), in one column and in one row
    rng = np.random.default_rng(exponent + 150)
    for length in range(1, 9):
        line, zeros = np.arange(length), np.zeros(length, np.intp)
        for _ in range(20):
            v = rng.uniform(1, 10, length) * np.exp(2j * np.pi * rng.uniform(size=length))
            v *= 10.0 ** exponent
            for t in ((line, zeros, v, (length, 1)), (zeros, line, v, (1, length))):
                norms = C._line_norms(t[0], t[1], np.abs(v))
                sigma = np.linalg.svd(_densify(t), compute_uv=False)
                assert len(norms) == 1
                assert abs(norms[0] - sigma[0]) <= 4 * np.spacing(sigma[0])


@pytest.mark.parametrize("values, rank", [([1.0, 1e-320], 1), ([1e-320, 3e-321], 2),
                                          ([1e200, 3e199], 2), ([1e200, 1.0], 1)])
def test_entries_out_of_the_squaring_range_take_the_component_route(values, rank, svd_calls):
    t = (np.array([0, 1]), np.array([1, 0]), np.array(values, dtype=complex), (2, 3))
    assert C._line_norms(t[0], t[1], np.abs(t[2])) is None
    assert C._triplet_rank(t) == _dense_rank(_densify(t)) == rank
    assert svd_calls


def test_a_two_by_two_component_takes_an_svd(svd_calls):
    t = (np.array([0, 0, 1, 1, 2]), np.array([0, 1, 0, 1, 2]),
         np.array([1, 2, 2, 4, 1e-3], dtype=complex), (3, 3))
    assert C._triplet_rank(t) == _dense_rank(_densify(t)) == 2
    assert svd_calls


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf), complex(np.nan, 0)])
@pytest.mark.parametrize("M", [np.eye(3, dtype=complex), np.ones((2, 2), dtype=complex)],
                         ids=["orthogonal lines", "one component"])
def test_a_non_finite_entry_is_rejected(bad, M):
    M = M.copy()
    M[1, 1] = bad
    rows, cols = np.nonzero(M)
    with pytest.raises(ValueError, match="map entries must be finite"):
        C.numeric_rank(M)
    with pytest.raises(ValueError, match="map entries must be finite"):
        C._triplet_rank((rows, cols, M[rows, cols], M.shape))


def test_m7_projection_closed_form():
    n = 7
    basis = DifferentialBasis(projection_basis(n), mode="selfadjoint")
    report = C.deRham_dims(basis, C.MatrixCarrierBasis(n))
    assert [row.h_dim for row in report.degrees] == \
        [n * math.comb(n, k) for k in range(n + 1)]


@pytest.mark.parametrize("case", ["torus theta 0.9 K 12", "heisenberg {W} K 4"])
def test_truncated_reports_match_dense_rule(case, heisenberg, heisenberg_basis,
                                            monkeypatch):
    if case.startswith("torus"):
        spec = torus_spec(0.9)
        basis, K = DifferentialBasis([QElement.generator(spec, 1)]), 12
    else:
        spec, basis, K = heisenberg, heisenberg_basis, 4
    blocks = C.deRham_dims_truncated(basis, spec, K).to_json()
    calls = []
    monkeypatch.setattr(C, "_triplet_rank",
                        lambda t: calls.append(t) or _dense_rank(_densify(t)))
    assert C.deRham_dims_truncated(basis, spec, K).to_json() == blocks
    # every outgoing map and every incoming one but the zero map into degree 0
    assert len(calls) == 2 * basis.top_degree + 1


# -- one commutator matrix per generator per complex -------------------------


@pytest.mark.parametrize("case", ["torus K 4", "heisenberg {W} K 3"])
def test_truncated_maps_match_boundary_matrices(case, torus, torus_basis, heisenberg,
                                                heisenberg_basis, monkeypatch):
    # both bases have degree 1, so the balls are K-2 -> K-1 -> K
    spec, basis, K = ((torus, torus_basis, 4) if case.startswith("torus")
                      else (heisenberg, heisenberg_basis, 3))
    small, mid, big = (C.QMonomialBasis(spec, K - m) for m in (2, 1, 0))
    seen = []
    monkeypatch.setattr(C, "_triplet_rank", lambda t: seen.append(t) or 0)
    C.deRham_dims_truncated(basis, spec, K)
    # every outgoing map on the K-1 ball, then every incoming map, whose blocks
    # are filtered from the outgoing ones, on the K-2 ball
    top = basis.top_degree
    expected = [C.boundary_matrix(k, basis, mid, big) for k in range(top + 1)] \
        + [C.boundary_matrix(k - 1, basis, small, mid) for k in range(1, top + 1)]
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert got[3] == want.shape and np.array_equal(_densify(got), want)


def test_one_commutator_matrix_per_generator(torus, torus_basis, monkeypatch):
    built = []
    commutator_blocks = C._commutator_blocks

    def blocks(*args, **kwargs):
        out = commutator_blocks(*args, **kwargs)
        built.extend(out)
        return out
    monkeypatch.setattr(C, "_commutator_blocks", blocks)
    C.deRham_dims_truncated(torus_basis, torus, 4)
    assert len(built) == 2  # U and U^*
    built.clear()
    basis = DifferentialBasis(projection_basis(4), mode="selfadjoint")
    _triplet(C.deRham_dims)(basis, C.MatrixCarrierBasis(4))
    assert len(built) == 4  # p_1..p_4, one family in self-adjoint mode
    built.clear()
    C.deRham_dims(basis, C.MatrixCarrierBasis(4))
    assert built == []  # the symbol route builds no map


def test_negative_max_degree_rejected(m2_setup, torus, torus_basis):
    with pytest.raises(ValueError, match="max_degree"):
        C.deRham_dims(*m2_setup, max_degree=-1)
    with pytest.raises(ValueError, match="max_degree"):
        C.deRham_dims_truncated(torus_basis, torus, 4, max_degree=-1)
    # the top degree itself stays allowed, with the rows of the full complex
    basis, carrier = m2_setup
    assert C.deRham_dims(basis, carrier, max_degree=2).to_json() == \
        C.deRham_dims(basis, carrier).to_json()
    assert C.deRham_dims_truncated(torus_basis, torus, 4, max_degree=2).to_json() == \
        C.deRham_dims_truncated(torus_basis, torus, 4).to_json()
    # above it every row would be zero, one per degree, without a limit
    for top in (3, 10 ** 6):
        with pytest.raises(ValueError, match=f"max_degree {top} is above the basis's top degree 2"):
            C.deRham_dims(basis, carrier, max_degree=top)
        with pytest.raises(ValueError, match=f"max_degree {top} is above the basis's top degree 2"):
            C.deRham_dims_truncated(torus_basis, torus, 4, max_degree=top)


# -- the sparse maps of the cohomology workload --------------------------------


CLOCK_NUMERATORS = ((1, 1), (1, 3), (2, 1), (2, 3))


def _clock_basis(numerators):
    """The clock images {U_1, U_3} of torus_spec_2n in M_12, with clock orders 3 and 4."""
    clocks = [clock_shift_rep(pair, QElement.generator(pair, 1)).mat
              for pair in (torus_spec(2 * math.pi * a / q) for q, a in zip((3, 4), numerators))]
    return DifferentialBasis([MatElement(np.kron(clocks[0], np.eye(4))),
                              MatElement(np.kron(np.eye(3), clocks[1]))])


def _star5_basis():
    g = star_tree(5)
    basis = DifferentialBasis([vertex_projection(g, v) for v in g.vertices],
                              mode="selfadjoint")
    return basis, C.GraphCarrierBasis(g, 2)


# each case gives a report entry point and its arguments
WORKLOAD_COMPLEXES = {
    "M_6 projections": lambda: (C.deRham_dims, (
        DifferentialBasis(projection_basis(6), mode="selfadjoint"), C.MatrixCarrierBasis(6))),
    **{f"torus theta {t} K 12": (lambda t=t: (C.deRham_dims_truncated, (
        DifferentialBasis([QElement.generator(torus_spec(t), 1)]), torus_spec(t), 12)))
       for t in (0.7, 0.9, 1.3, 2.1)},
    **{f"heisenberg ({mu}, {nu}) K 4": (lambda mu=mu, nu=nu: (C.deRham_dims_truncated, (
        DifferentialBasis([QElement.generator(heisenberg_spec(mu, nu), 3)]),
        heisenberg_spec(mu, nu), 4)))
       for mu, nu in ((0.11, 0.07), (0.13, 0.05), (0.17, 0.03))},
    **{f"clock dolbeault {nums}": (lambda nums=nums: (C.dolbeault_dims, (
        1, _clock_basis(nums), C.MatrixCarrierBasis(12))))
       for nums in CLOCK_NUMERATORS},
    "star5 graph": lambda: (C.deRham_dims, _star5_basis()),
}

@pytest.mark.parametrize("case", list(WORKLOAD_COMPLEXES))
def test_workload_maps_match_dense_rule(case, monkeypatch):
    maps = []
    assemble = C._assemble
    monkeypatch.setattr(C, "_assemble", lambda *args: maps.append(assemble(*args)) or maps[-1])
    report, args = WORKLOAD_COMPLEXES[case]()
    _triplet(report)(*args)  # truncated carriers have no other route
    assert maps
    for rows, cols, vals, shape in maps:
        # no repeated (row, col) and no stored zero: the pattern of the dense map
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
        assert np.all(vals != 0)
        M = _densify((rows, cols, vals, shape))
        assert C._triplet_rank((rows, cols, vals, shape)) == _dense_rank(M)


@pytest.mark.parametrize("case", [c for c in WORKLOAD_COMPLEXES if c.startswith(("torus", "heis"))]
                         + ["torus theta 0.9 K 80"])
def test_truncated_complexes_make_no_svd(case, svd_calls):
    if case == "torus theta 0.9 K 80":
        spec = torus_spec(0.9)
        C.deRham_dims_truncated(DifferentialBasis([QElement.generator(spec, 1)]), spec, 80)
    else:
        report, args = WORKLOAD_COMPLEXES[case]()
        report(*args)
    assert svd_calls == []


# -- memory: no map is ever dense -----------------------------------------------

MIB = 2 ** 20


def _peak_bytes(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_projection_m8_memory_and_closed_form():
    n = 8
    basis = DifferentialBasis(projection_basis(n), mode="selfadjoint")
    report, peak = _peak_bytes(lambda: C.deRham_dims(basis, C.MatrixCarrierBasis(n)))
    assert [row.h_dim for row in report.degrees] == \
        [n * math.comb(n, k) for k in range(n + 1)]
    # a dense degree-4 map alone takes 64 * 56 x 64 * 70 complex entries, 257 MiB
    assert peak < 16 * MIB


@pytest.mark.parametrize("case", ["torus theta 0.9 {U} K 20", "heisenberg {W} K 6"])
def test_truncated_memory(case, heisenberg, heisenberg_basis):
    if case.startswith("torus"):
        spec = torus_spec(0.9)
        basis, K = DifferentialBasis([QElement.generator(spec, 1)]), 20
    else:
        spec, basis, K = heisenberg, heisenberg_basis, 6
    _, peak = _peak_bytes(lambda: C.deRham_dims_truncated(basis, spec, K))
    assert peak < 16 * MIB


# -- covector merges from the basis's table -------------------------------------


def _assemble_by_merges(blocks, out_indices, in_indices):
    """The map of covector blocks, one _merge_indices call per (A_j, input covector)."""
    h, w = blocks[0][2][3]
    out_pos = {idx: i for i, idx in enumerate(out_indices)}
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, complex))]
    for starred, j, (rows, cols, vals, _) in blocks:
        cov = ((), (j,)) if starred else ((j,), ())
        for c, (I, J) in enumerate(in_indices):
            hit = F._merge_indices(*cov, I, J)
            if hit is not None:
                sign, key = hit
                parts.append((rows + out_pos[key] * h, cols + c * w, vals if sign > 0 else -vals))
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    return rows, cols, vals, (h * len(out_indices), w * len(in_indices))


def _sorted_triplets(t):
    rows, cols, vals, shape = t
    order = np.lexsort((cols, rows))
    return rows[order].tolist(), cols[order].tolist(), vals[order].tolist(), shape


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["selfadjoint", "complex"])
def test_assemble_reads_the_merge_table(n, mode):
    rng = np.random.default_rng(n)
    if mode == "selfadjoint":
        elements = [MatElement(np.diag(rng.standard_normal(3))) for _ in range(n)]
    else:
        elements = [MatElement(np.diag(np.exp(1j * rng.uniform(0, 6, 3)))) for _ in range(n)]
    basis = DifferentialBasis(elements, mode=mode)
    carrier = C.MatrixCarrierBasis(3)
    rows = [(C._commutator_blocks(basis.scaled_symbol, basis.families, carrier),
             [C._form_indices(n, k, basis.families) for k in range(basis.top_degree + 2)])]
    if mode == "complex":
        starred = C._commutator_blocks(basis.scaled_symbol, (True,), carrier)
        rows += [(starred, [C._dolbeault_indices(n, p, q) for q in range(n + 2)])
                 for p in range(n + 1)]
    for blocks, indices in rows:
        for inp, out in zip(indices, indices[1:]):
            got = C._assemble(basis, blocks, out, inp)
            assert _sorted_triplets(got) == \
                _sorted_triplets(_assemble_by_merges(blocks, out, inp))


# -- rotated matrix bases through their eigenbasis ------------------------------


def _unitary(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _rotated_projections(n):
    q = _unitary(n, np.random.default_rng(100 + n))
    return DifferentialBasis([MatElement(q @ p.mat @ q.conj().T) for p in projection_basis(n)],
                             mode="selfadjoint", label=f"rotated M_{n} projections")


def _rotated_unitary_pair(n):
    rng = np.random.default_rng(200 + n)
    q = _unitary(n, rng)
    # a repeated phase keeps some eigenspaces degenerate
    phases = rng.uniform(0, 2 * math.pi, (2, n))
    phases[0, 1] = phases[0, 0]
    mats = [MatElement(q @ np.diag(np.exp(1j * ph)) @ q.conj().T) for ph in phases]
    return DifferentialBasis(mats, prefactors=[1.0, 0.5 - 1j], label=f"rotated M_{n} unitaries")


def _dense_deRham(basis, carrier):
    """The report of the dense rule: explicit matrix-unit maps and numeric_rank."""
    n, families = basis.size, basis.families
    indices = [C._form_indices(n, k, families) for k in range(basis.top_degree + 2)]
    ranks = [C.numeric_rank(C.boundary_matrix(k, basis, carrier))
             for k in range(basis.top_degree + 1)]
    return C._chain_report(basis.label, carrier, [len(i) for i in indices], ranks,
                           [0] + ranks).to_json()


def _dense_dolbeault(p, basis, carrier):
    n = basis.size
    indices = [C._dolbeault_indices(n, p, q) for q in range(n + 2)]
    ranks = [C.numeric_rank(C.dolbeault_matrix(p, q, basis, carrier)) for q in range(n + 1)]
    return C._chain_report(basis.label, carrier, [len(i) for i in indices], ranks,
                           [0] + ranks).to_json()


ROTATED = {**{f"rotated M_{n} projections": (lambda n=n: _rotated_projections(n))
              for n in (3, 4, 5, 6)},
           **{f"rotated M_{n} unitary pair": (lambda n=n: _rotated_unitary_pair(n))
              for n in (4, 5, 6, 7)}}


@pytest.mark.parametrize("case", list(ROTATED) + ["M_7 clock"])
def test_rotated_bases_match_the_dense_rule(case, clock7_setup):
    if case == "M_7 clock":
        basis, carrier = clock7_setup
    else:
        basis = ROTATED[case]()
        carrier = C.MatrixCarrierBasis(basis.elements[0].n)
        assert basis.eigenbasis[0] is not None
    assert C.deRham_dims(basis, carrier).to_json() == _dense_deRham(basis, carrier)
    if basis.mode == "complex":
        for p in range(basis.size + 1):
            assert C.dolbeault_dims(p, basis, carrier).to_json() == \
                _dense_dolbeault(p, basis, carrier)
    assert C.fuglede_putnam_check(basis, carrier) is \
        _null_space_fuglede_putnam(basis, carrier) is True
    for adjoints in (False, True):
        acting = basis.scaled + (basis.scaled_star if adjoints else [])
        system = np.vstack([_densify(C._ad_matrix(x, carrier.elements(), carrier))
                            for x in acting])
        assert C.commutant_kernel_dimension(basis, carrier, include_adjoints=adjoints) == \
            carrier.dim - C.numeric_rank(system)


def test_rotated_m8_projections_closed_form():
    n = 8
    basis = _rotated_projections(n)
    assert basis.eigenbasis[0] is not None
    report = C.deRham_dims(basis, C.MatrixCarrierBasis(n))
    assert [row.h_dim for row in report.degrees] == [n * math.comb(n, k) for k in range(n + 1)]


# -- ranks from the heat symbol ---------------------------------------------------


@pytest.mark.parametrize("case", list(WORKLOAD_COMPLEXES))
def test_workload_symbol_reports_match_the_triplet_route(case):
    report, args = WORKLOAD_COMPLEXES[case]()
    if report is C.deRham_dims_truncated:  # monomials shift their keys
        basis, spec, K = args
        assert _symbol(basis, C.QMonomialBasis(spec, K), basis.families) is None
    else:
        basis, carrier = args[-2:]
        assert _symbol(basis, carrier, basis.families) is not None
    assert report(*args).to_json() == _triplet(report)(*args).to_json()


def _assert_routes_agree(basis, carrier):
    """Every report of the symbol route equals that of the triplet route."""
    assert _symbol(basis, carrier, basis.families) is not None
    assert C.deRham_dims(basis, carrier).to_json() == \
        _triplet(C.deRham_dims)(basis, carrier).to_json()
    if basis.mode == "complex":
        for p in range(-1, basis.size + 2):  # rows outside 0..n are empty
            assert C.dolbeault_dims(p, basis, carrier).to_json() == \
                _triplet(C.dolbeault_dims)(p, basis, carrier).to_json()
    for adjoints in (False, True):
        assert C.commutant_kernel_dimension(basis, carrier, include_adjoints=adjoints) \
            == _triplet(C.commutant_kernel_dimension)(basis, carrier, include_adjoints=adjoints)


def _on_matrix_units(basis):
    return basis, C.MatrixCarrierBasis(basis.elements[0].n)


@pytest.mark.parametrize("case", list(ROTATED))
def test_rotated_symbol_reports_match_the_triplet_route(case):
    _assert_routes_agree(*_on_matrix_units(ROTATED[case]()))


DOLBEAULT_CASES = {
    **{case: (lambda case=case: _on_matrix_units(ROTATED[case]()))
       for case in ROTATED if "unitary" in case},  # the complex-mode cases
    **{f"clock {nums}": (lambda nums=nums: _on_matrix_units(_clock_basis(nums)))
       for nums in CLOCK_NUMERATORS},
}


@pytest.mark.parametrize("case", list(DOLBEAULT_CASES) + ["M_7 clock"])
def test_triplet_dolbeault_rows_match_the_dense_rule(case, clock7_setup):
    # a row is C(n, p) copies of the starred complex; the dense rule ranks the
    # whole row map of dolbeault_matrix, in matrix units
    basis, carrier = clock7_setup if case == "M_7 clock" else DOLBEAULT_CASES[case]()
    for p in range(basis.size + 1):
        assert _triplet(C.dolbeault_dims)(p, basis, carrier).to_json() == \
            _dense_dolbeault(p, basis, carrier)


def _star3_projections():
    g = star_tree(3)
    return [vertex_projection(g, v) for v in g.vertices], C.GraphCarrierBasis(g, 2)


# self-adjoint elements and their carrier
SELFADJOINT_ELEMENTS = {
    "M_3 projections": lambda: (projection_basis(3), C.MatrixCarrierBasis(3)),
    "rotated M_4 projections": lambda: (_rotated_projections(4).elements,
                                        C.MatrixCarrierBasis(4)),
    "star3 graph": _star3_projections,
}


@pytest.mark.parametrize("case", list(SELFADJOINT_ELEMENTS))
def test_triplet_commutant_with_adjoints_in_selfadjoint_mode(case):
    # the degree-0 map over both families reads the starred merge rows, which
    # a self-adjoint basis keeps although its forms never use them; complex
    # prefactors make c_j U_j and its adjoint differ
    elements, carrier = SELFADJOINT_ELEMENTS[case]()
    prefactors = [0.5 - 1j, 2j, -1.5, 1 + 1j][:len(elements)]
    basis = DifferentialBasis(elements, prefactors, mode="selfadjoint")
    system = np.vstack([_densify(C._ad_matrix(x, carrier.elements(), carrier))
                        for x in basis.scaled + basis.scaled_star])
    assert _triplet(C.commutant_kernel_dimension)(basis, carrier, include_adjoints=True) == \
        carrier.dim - C.numeric_rank(system)


SYMBOL_FAMILIES = {
    **{f"M_{n} projections": (lambda n=n: _on_matrix_units(
        DifferentialBasis(projection_basis(n), mode="selfadjoint"))) for n in range(2, 11)},
    **{case: (lambda case=case: _on_matrix_units(ROTATED[case]())) for case in ROTATED},
    "rotated M_8 projections": lambda: _on_matrix_units(_rotated_projections(8)),
    "star5 graph": _star5_basis,
    **{f"clock {nums}": (lambda nums=nums: _on_matrix_units(_clock_basis(nums)))
       for nums in CLOCK_NUMERATORS},
}


@pytest.mark.parametrize("case", list(SYMBOL_FAMILIES))
def test_no_weight_between_the_degree0_and_whole_map_cuts(case):
    # the symbol route cuts at N D eps max|v|, the rule of the degree-0 map; the
    # triplet route cuts each degree at max(shape) eps sigma_max, up to the
    # widest form space; no |v| between the two, so both count alike
    basis, carrier = SYMBOL_FAMILIES[case]()
    n, eps = basis.size, np.finfo(float).eps
    N = n * len(basis.families)
    rows = [(basis.families, math.comb(N, N // 2))]
    if basis.mode == "complex":  # Dolbeault maps: C(n, p) C(n, q) covector indices
        rows.append(((True,), math.comb(n, n // 2) ** 2))
    for families, widest in rows:
        v, cut = _symbol(basis, carrier, families)
        top = widest * carrier.dim * eps * v.max()
        assert cut == len(families) * n * carrier.dim * eps * v.max() <= top
        assert not ((v > cut) & (v <= top)).any()


@pytest.mark.parametrize("case", list(SYMBOL_FAMILIES))
def test_rank_symbol_is_the_heat_symbol_times_the_family_count(case):
    # |v|^2 = F lambda: both read one list of weights, over F families or one
    basis, carrier = SYMBOL_FAMILIES[case]()
    v, _ = _symbol(basis, carrier, basis.families)
    lam = basis.symbol.on(carrier).lam()
    n_families = len(basis.families)
    assert (np.abs(v ** 2 - n_families * lam) <= 1e-14 * n_families * lam).all()


@st.composite
def repeated_diagonal_bases(draw):
    """A diagonal matrix basis whose entries repeat exactly, so that some
    weights d(a) - d(b) are exactly zero, over its matrix units."""
    mode = draw(st.sampled_from(["selfadjoint", "complex"]))
    values = [0.0, 1.0, -1.0, 2.5] if mode == "selfadjoint" else [0.0, 1.0, 1j, -1.0, 2 + 1j]
    n, m = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    diags = draw(st.lists(st.lists(st.sampled_from(values), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    prefactors = draw(st.lists(st.sampled_from([1.0, -2.0, 0.5 - 1j]), min_size=n, max_size=n))
    with warnings.catch_warnings():  # a self-adjoint element in complex mode warns
        warnings.simplefilter("ignore")
        basis = DifferentialBasis([MatElement(np.diag(d)) for d in diags], prefactors, mode)
    return basis, C.MatrixCarrierBasis(m)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=repeated_diagonal_bases())
def test_symbol_route_matches_triplet_route_on_repeated_entries(case):
    _assert_routes_agree(*case)


def _raised(route, *args):
    with pytest.raises(Exception) as info:
        route(*args)
    return info.type, str(info.value)


def test_symbol_route_raises_as_the_triplet_route():
    m3 = DifferentialBasis(projection_basis(3), mode="selfadjoint")
    clock = _clock_basis((1, 1))
    huge = DifferentialBasis([MatElement(np.diag([1e308, -1e308]))], mode="selfadjoint")
    routes = [C.deRham_dims]
    routes += [lambda b, c, a=a: C.commutant_kernel_dimension(b, c, include_adjoints=a)
               for a in (False, True)]

    def dolbeault(b, c):
        return C.dolbeault_dims(1, b, c)
    cases = [(m3, C.MatrixCarrierBasis(4), ValueError, "dimension mismatch: 3 vs 4"),
             (clock, C.MatrixCarrierBasis(5), ValueError, "dimension mismatch: 12 vs 5"),
             (m3, C.GraphCarrierBasis(star_tree(3), 1), TypeError, "unsupported operand"),
             (huge, C.MatrixCarrierBasis(2), ValueError, "matrix entries must be finite")]
    for basis, carrier, error, message in cases:
        for route in routes + [dolbeault] * (basis.mode == "complex"):
            want = _raised(_triplet(route), basis, carrier)
            assert want[0] is error and message in want[1]
            assert _raised(route, basis, carrier) == want


def test_projection_m64_closed_form_without_maps(monkeypatch):
    n = 64
    basis = DifferentialBasis(projection_basis(n), mode="selfadjoint")

    def refuse(*args):
        raise AssertionError("the symbol route builds no covector index and no map")
    for name in ("_form_indices", "_dolbeault_indices", "_assemble", "_commutator_blocks"):
        monkeypatch.setattr(C, name, refuse)
    report, peak = _peak_bytes(lambda: C.deRham_dims(basis, C.MatrixCarrierBasis(n)))
    assert [row.h_dim for row in report.degrees] == [n * math.comb(n, k) for k in range(n + 1)]
    assert peak < 16 * MIB
