"""Property tests for the shared term algebra and the linearity of delta.

Hypothesis draws q-lattice and graph elements, and forms whose
coefficients are q-lattice, graph or matrix elements.  Exponents, path
lengths and coefficients stay small, so every law holds within a tolerance
relative to the norms involved.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdiff.forms import DifferentialBasis, DifferentialForm, delta
from ncdiff.graph_algebra import GraphElement, common_range_pairs, vertex_projection
from ncdiff.matrix_algebra import projection_basis
from ncdiff.qlattice import QElement, heisenberg_spec, torus_spec
from ncdiff.testing import loop_graph, random_matelement, star_tree

REL_TOL = 1e-12
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)

scalars = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


def q_elements(spec, max_exp: int = 3, max_terms: int = 5):
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * spec.generator_count)
    return st.dictionaries(exps, scalars, max_size=max_terms).map(lambda t: QElement(spec, t))


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
