import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncdiff.cohomology as C
import ncdiff.forms as F
from ncdiff.forms import DifferentialBasis, DifferentialForm
from ncdiff.graph_algebra import vertex_projection
from ncdiff.matrix_algebra import MatElement, projection_basis
from ncdiff.carrier import commutator
from ncdiff.qlattice import QElement, clock_shift_rep, torus_spec
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
    n, mode = basis.size, basis.mode
    for k in range(basis.top_degree + 1):
        expected = _symbolic_matrix(F.delta, C._form_indices(n, k + 1, mode),
                                    C._form_indices(n, k, mode), basis, domain, codomain)
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


def test_dolbeault_rows(clock7_setup):
    basis, carrier = clock7_setup
    for p in (0, 1):
        report = C.dolbeault_dims(p, basis, carrier)
        m0 = C.dolbeault_matrix(p, 0, basis, carrier)
        m1 = C.dolbeault_matrix(p, 1, basis, carrier)
        assert m1.shape[0] == 0 or np.abs(m1 @ m0).max() <= 1e-10
        assert report.degrees[0].dim_ker == 7


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
    L1 = np.vstack([C._ad_matrix(x, elems, carrier) for x in basis.scaled])
    L2 = np.vstack([L1] + [C._ad_matrix(x, elems, carrier) for x in basis.scaled_star])

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
    # N and N^* too; no DifferentialBasis admits it, so the blocks come bare
    N = MatElement(np.array([[0.0, 1.0], [0.0, 0.0]]))
    bare = SimpleNamespace(scaled=[N], scaled_star=[N.adjoint()])
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
    monkeypatch.setattr(C, "numeric_rank", _dense_rank)
    assert C.deRham_dims_truncated(basis, spec, K).to_json() == blocks


# -- one commutator matrix per generator per complex -------------------------


@pytest.mark.parametrize("case", ["torus K 4", "heisenberg {W} K 3"])
def test_truncated_maps_match_boundary_matrices(case, torus, torus_basis, heisenberg,
                                                heisenberg_basis, monkeypatch):
    # both bases have degree 1, so the balls are K-2 -> K-1 -> K
    spec, basis, K = ((torus, torus_basis, 4) if case.startswith("torus")
                      else (heisenberg, heisenberg_basis, 3))
    small, mid, big = (C.QMonomialBasis(spec, K - m) for m in (2, 1, 0))
    seen = []
    monkeypatch.setattr(C, "numeric_rank", lambda M: seen.append(M) or 0)
    C.deRham_dims_truncated(basis, spec, K)
    # every outgoing map on the K-1 ball, then every incoming map, whose blocks
    # are slices of the outgoing ones, on the K-2 ball
    top = basis.top_degree
    expected = [C.boundary_matrix(k, basis, mid, big) for k in range(top + 1)] \
        + [C.boundary_matrix(k - 1, basis, small, mid) for k in range(1, top + 1)]
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_one_commutator_matrix_per_generator(torus, torus_basis, monkeypatch):
    built = []
    ad_matrix = C._ad_matrix
    monkeypatch.setattr(C, "_ad_matrix",
                        lambda *args: built.append(args[0]) or ad_matrix(*args))
    C.deRham_dims_truncated(torus_basis, torus, 4)
    assert len(built) == 2  # U and U^*
    built.clear()
    C.deRham_dims(DifferentialBasis(projection_basis(4), mode="selfadjoint"),
                  C.MatrixCarrierBasis(4))
    assert len(built) == 4  # p_1..p_4, one family in self-adjoint mode


def test_negative_max_degree_rejected(m2_setup, torus, torus_basis):
    with pytest.raises(ValueError, match="max_degree"):
        C.deRham_dims(*m2_setup, max_degree=-1)
    with pytest.raises(ValueError, match="max_degree"):
        C.deRham_dims_truncated(torus_basis, torus, 4, max_degree=-1)
    # degrees above the top one stay allowed: their rows are zero
    rows = C.deRham_dims(*m2_setup, max_degree=3).to_json()["degrees"]
    assert rows[3] == {"k": 3, "dim_ker": 0, "rank_prev": 0, "h_dim": 0}
