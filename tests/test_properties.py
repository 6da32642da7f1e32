"""Property tests for the shared term algebra and the linearity of delta.

Hypothesis draws q-lattice and graph elements, and forms whose
coefficients are q-lattice, graph or matrix elements.  Exponents, path
lengths and coefficients stay small, so every law holds within a tolerance
relative to the norms involved.  Over random commuting matrix bases the
derivative also squares to zero and obeys the graded Leibniz rule, and the
heat flow is completely positive and conservative.  Q-lattice products above
the array-route cut are associative and reverse under the adjoint, against
the pair loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdiff.carrier import EQ_TOLERANCE
from ncdiff.dirichlet import audit_semigroup, choi_matrix, heat_semigroup
from ncdiff.forms import DifferentialBasis, DifferentialForm, delta, wedge
from ncdiff.graph_algebra import GraphElement, common_range_pairs, vertex_projection
from ncdiff.matrix_algebra import MatElement, projection_basis
from ncdiff.qlattice import _ARRAY_PAIRS, QElement, heisenberg_spec, torus_spec
from ncdiff.testing import loop_graph, loop_product, random_matelement, star_tree

REL_TOL = 1e-12
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)

scalars = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


def q_elements(spec, max_exp: int = 3, max_terms: int = 5, min_terms: int = 0,
               coeffs=scalars):
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * spec.generator_count)
    return st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms).map(
        lambda t: QElement(spec, t))


def graph_elements(graph, max_len: int = 2, max_terms: int = 5):
    keys = st.sampled_from(common_range_pairs(graph, max_len))
    return st.dictionaries(keys, scalars, max_size=max_terms).map(
        lambda t: GraphElement(graph, t))


def mat_elements(n: int):
    """Seeded random matrices: drawing n^2 entries one by one is slow."""
    return st.integers(0, 2 ** 32 - 1).map(
        lambda seed: random_matelement(n, np.random.default_rng(seed)))


def forms(basis, coeffs):
    """Forms over ``basis`` with up to three covector keys and ``coeffs`` coefficients."""
    n = basis.size
    subsets = [tuple(i for i in range(n) if m >> i & 1) for m in range(2 ** n)]
    starred = subsets if basis.mode == "complex" else [()]
    keys = st.sampled_from([(I, J) for I in subsets for J in starred])
    return st.dictionaries(keys, coeffs, max_size=3).map(lambda t: DifferentialForm(basis, t))


def _projections(graph):
    return DifferentialBasis([vertex_projection(graph, v) for v in graph.vertices],
                             mode="selfadjoint", label="vertex projections")


TORUS = torus_spec(0.7)
HEIS = heisenberg_spec(0.11, 0.07)
LOOP = loop_graph(3)
TREE = star_tree(4)
U = QElement.generator(TORUS, 1)

ELEMENTS = {
    "torus": q_elements(TORUS),
    "heisenberg": q_elements(HEIS, max_exp=2),
    "graph loop": graph_elements(LOOP),
    "graph tree": graph_elements(TREE),
}
# basis and coefficient strategy of each form family
FORMS = {
    "torus {U, U^2}": (DifferentialBasis([U, U * U], label="torus {U, U^2}"),
                       q_elements(TORUS, max_terms=3)),
    "heisenberg {W}": (DifferentialBasis([QElement.generator(HEIS, 3)], label="{W}"),
                       q_elements(HEIS, max_exp=2, max_terms=3)),
    "graph loop {p_v}": (_projections(LOOP), graph_elements(LOOP, max_terms=3)),
    "graph tree {p_v}": (_projections(TREE), graph_elements(TREE, max_terms=3)),
    "M_3 projections": (DifferentialBasis(projection_basis(3), mode="selfadjoint"),
                        mat_elements(3)),
}
ALGEBRAS = dict(ELEMENTS, **{f"forms {k}": forms(*v) for k, v in FORMS.items()})


def _close(x, y) -> bool:
    return (x - y).norm() <= REL_TOL * (1.0 + max(x.norm(), y.norm()))


@pytest.mark.parametrize("label", list(ALGEBRAS))
@PROPERTY
@given(data=st.data())
def test_term_algebra_laws(label, data):
    a, b = data.draw(ALGEBRAS[label]), data.draw(ALGEBRAS[label])
    assert _close((a + b) - b, a)
    assert (a - a).terms == {}
    assert (-a).norm() == a.norm()


@pytest.mark.parametrize("label", list(FORMS))
@PROPERTY
@given(data=st.data(), c=scalars)
def test_delta_is_linear(label, data, c):
    family = forms(*FORMS[label])
    alpha, beta = data.draw(family), data.draw(family)
    assert _close(delta(alpha + beta), delta(alpha) + delta(beta))
    assert _close(delta(alpha.scale(c)), delta(alpha).scale(c))


# unit-disk coefficients and more than sqrt(_ARRAY_PAIRS) terms per operand,
# so every product of two operands takes the array route
unit_scalars = st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
LARGE = {label: q_elements(spec, max_exp=50, min_terms=math.isqrt(_ARRAY_PAIRS) + 1,
                           max_terms=24, coeffs=unit_scalars)
         for label, spec in (("torus", TORUS), ("heisenberg", HEIS))}


@pytest.mark.parametrize("label", list(LARGE))
@PROPERTY
@given(data=st.data())
def test_large_products_associate_and_reverse_under_adjoint(label, data):
    x, y, z = (data.draw(LARGE[label]) for _ in range(3))
    # array-route bracketings against loop bracketings
    assert ((x * y) * z - loop_product(x, loop_product(y, z))).norm() <= EQ_TOLERANCE
    assert (loop_product(loop_product(x, y), z) - x * (y * z)).norm() <= EQ_TOLERANCE
    assert ((x * y).adjoint() - loop_product(y.adjoint(), x.adjoint())).norm() <= EQ_TOLERANCE
    assert (loop_product(x, y).adjoint() - y.adjoint() * x.adjoint()).norm() <= EQ_TOLERANCE


@st.composite
def commuting_matrix_bases(draw, max_n: int = 4):
    """Complex-mode bases of 1-3 commuting normal matrices R diag(lambda_j) R^*
    in M_2..M_max_n, with complex prefactors.

    Eigenvalues come from a small Gaussian-integer grid, so they repeat
    within an element and across elements.
    """
    n, k = draw(st.integers(2, max_n)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lams = [rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n) for _ in range(k)]
    prefactors = [complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(k)]
    return DifferentialBasis([MatElement(R @ np.diag(lam) @ R.conj().T) for lam in lams],
                             prefactors=prefactors)


def _graded_sign(alpha):
    """sum_k (-1)^k alpha_k over the homogeneous components alpha_k."""
    return DifferentialForm(alpha.basis, {(I, J): -a if (len(I) + len(J)) % 2 else a
                                          for (I, J), a in alpha.terms.items()})


def _basis_scale(basis) -> float:
    return 1.0 + max(x.norm() for x in basis.scaled)


# a random real-eigenvalue element is self-adjoint, which complex mode allows
@pytest.mark.filterwarnings("ignore:basis element")
@PROPERTY
@given(basis=commuting_matrix_bases(), data=st.data())
def test_delta_squared_vanishes(basis, data):
    alpha = data.draw(forms(basis, mat_elements(basis.elements[0].n)))
    bound = REL_TOL * (1.0 + alpha.norm()) * _basis_scale(basis) ** 2
    assert delta(delta(alpha)).norm() <= bound


@pytest.mark.filterwarnings("ignore:basis element")
@PROPERTY
@given(basis=commuting_matrix_bases(), data=st.data())
def test_graded_leibniz(basis, data):
    family = forms(basis, mat_elements(basis.elements[0].n))
    alpha, beta = data.draw(family), data.draw(family)
    lhs = delta(wedge(alpha, beta))
    rhs = wedge(delta(alpha), beta) + wedge(_graded_sign(alpha), delta(beta))
    bound = REL_TOL * (1.0 + alpha.norm() * beta.norm()) * _basis_scale(basis)
    assert (lhs - rhs).norm() <= bound


@pytest.mark.filterwarnings("ignore:basis element")
@PROPERTY
@given(basis=commuting_matrix_bases(max_n=5),
       ts=st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0, 25.0]),
                   min_size=1, max_size=3, unique=True))
def test_heat_flow_is_cp_and_conservative(basis, ts):
    n = basis.elements[0].n
    one = MatElement(np.eye(n))
    audit = audit_semigroup(ts, n, basis, samples=2)
    for t, row in zip(ts, audit.results):
        assert row["choi_min_eigenvalue"] >= -1e-10
        if n <= 3:
            C = choi_matrix(t, n, basis).mat
            choi_min = np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0]
            assert choi_min >= -1e-10
            assert abs(row["choi_min_eigenvalue"] - choi_min) <= 1e-10
        assert heat_semigroup(one, t, basis).equal_within(one, EQ_TOLERANCE)
