"""The seeded generators of ncdiff.testing draw the samples they always drew.

The oracles below are the generators as first written: one vector draw per
exponent tuple, and the term keys of a graph listed on every draw.
"""

import numpy as np
import pytest

from ncdiff import graph_algebra as ga
from ncdiff.graph_algebra import GraphElement
from ncdiff.qlattice import QElement, heisenberg_spec, torus_spec
from ncdiff.testing import (default_carriers, graph_sampler, line_graph, loop_graph,
                            random_graph_element, random_qelement, star_tree)

SEEDS = [0, 1, 5, 11, 2024]


def oracle_qelement(spec, rng, max_exp=3, n_terms=4):
    m = spec.generator_count
    terms = {}
    for _ in range(n_terms):
        e = tuple(int(x) for x in rng.integers(-max_exp, max_exp + 1, size=m))
        terms[e] = complex(rng.standard_normal(), rng.standard_normal())
    return QElement(spec, terms)


def oracle_graph_element(graph, rng, max_len=2, n_terms=3):
    pairs = ga.common_range_pairs(graph, max_len)
    terms = {}
    for _ in range(n_terms):
        mu, nu = pairs[int(rng.integers(len(pairs)))]
        terms[(mu, nu)] = complex(rng.standard_normal(), rng.standard_normal())
    return GraphElement(graph, terms)


def same(x, y):
    return list(x.terms.items()) == list(y.terms.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_default_carriers_keep_their_streams(seed):
    carriers = default_carriers(seed)
    rng = np.random.default_rng(seed)  # the stream default_carriers(seed) shares
    oracles = []
    for label, basis, _ in carriers:
        x = basis.elements[0]
        if label.startswith("matrix"):
            oracles.append(lambda: rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        elif label == "torus":
            oracles.append(lambda s=x.spec: oracle_qelement(s, rng, max_exp=6))
        elif label == "heisenberg":
            oracles.append(lambda s=x.spec: oracle_qelement(s, rng, max_exp=3))
        else:
            oracles.append(lambda g=x.graph: oracle_graph_element(g, rng))
    assert len(oracles) == 5
    for i in range(60):
        f = (7 * i) % len(carriers)  # interleave the families
        got, want = carriers[f][2](), oracles[f]()
        if isinstance(want, np.ndarray):
            assert np.array_equal(got.mat, want), (seed, i)
        else:
            assert same(got, want), (seed, i, carriers[f][0])


@pytest.mark.parametrize("seed", SEEDS)
def test_random_qelement_keeps_its_stream(seed):
    specs = [torus_spec(0.7), heisenberg_spec(0.11, 0.07)]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(40):
        spec = specs[i % 2]
        max_exp, n_terms = 1 + i % 7, 1 + i % 5
        assert same(random_qelement(spec, ours, max_exp, n_terms),
                    oracle_qelement(spec, theirs, max_exp, n_terms)), (seed, i)
        assert ours.standard_normal() == theirs.standard_normal()


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_element_keeps_its_stream(seed):
    graphs = [star_tree(5), loop_graph(3), line_graph(4)]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(30):
        graph, max_len, n_terms = graphs[i % 3], 1 + i % 3, 1 + i % 4
        assert same(random_graph_element(graph, ours, max_len, n_terms),
                    oracle_graph_element(graph, theirs, max_len, n_terms)), (seed, i)
    sample = graph_sampler(graphs[0], ours, 3, 4)
    for i in range(10):
        assert same(sample(), oracle_graph_element(graphs[0], theirs, 3, 4)), (seed, i)
