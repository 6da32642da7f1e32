import numpy as np
import pytest

from ncdiff.graph_algebra import DirectedGraph
from ncdiff.matrix_algebra import projection_basis
from ncdiff.forms import DifferentialBasis
from ncdiff.qlattice import QElement, heisenberg_spec, torus_spec
from ncdiff.testing import line_graph, loop_graph, star_tree

THETA = 0.7
MU, NU = 0.11, 0.07


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def torus():
    return torus_spec(THETA)


@pytest.fixture(scope="session")
def heisenberg():
    return heisenberg_spec(MU, NU, hbar=1.0, c=1.0)


@pytest.fixture(scope="session")
def torus_basis(torus):
    return DifferentialBasis([QElement.generator(torus, 1)], label="torus {U}")


@pytest.fixture(scope="session")
def heisenberg_basis(heisenberg):
    return DifferentialBasis([QElement.generator(heisenberg, 3)],
                             label="heisenberg {W}")


@pytest.fixture(scope="session")
def p_basis3():
    return DifferentialBasis(projection_basis(3), mode="selfadjoint",
                             label="M_3 projections")


def diamond_graph():
    """Loop-free graph with a two-exit vertex."""
    return DirectedGraph(
        ["s", "a", "b", "t"],
        {"e1": ("s", "a"), "e2": ("s", "b"), "e3": ("a", "t"), "e4": ("b", "t")})


def loop_with_exit():
    """Triangle cycle plus an escape edge; the cycle has an exit."""
    return DirectedGraph(
        ["c0", "c1", "c2", "out"],
        {"l0": ("c0", "c1"), "l1": ("c1", "c2"), "l2": ("c2", "c0"),
         "x": ("c0", "out")})


def o2_graph():
    """One vertex and two loops: the Cuntz algebra O_2."""
    return DirectedGraph(["o"], {"a": ("o", "o"), "b": ("o", "o")})


def graph_corpus():
    return {
        "star5": star_tree(5),
        "line6": line_graph(6),
        "diamond": diamond_graph(),
        "loop1": loop_graph(1),
        "loop3": loop_graph(3),
        "loop_exit": loop_with_exit(),
    }
