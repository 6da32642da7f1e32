"""The seeded generators of ncdiff.testing draw the samples they always drew.

The oracles below are the generators as first written: one vector draw per
exponent tuple, and the term keys of a graph listed on every draw.  The
selftest battery's held inputs are checked against the fresh draws of
``oracles``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncdiff
import oracles
from ncdiff import graph_algebra as ga, testing
from ncdiff.graph_algebra import GraphElement
from ncdiff.matrix_algebra import MatElement
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


def same_element(x, y):
    if isinstance(x, MatElement):
        return isinstance(y, MatElement) and x.mat.tobytes() == y.mat.tobytes()
    return type(x) is type(y) and same(x, y)


def same_basis(b, c):
    return (b.label, b.mode, b.prefactors, b.size) == (c.label, c.mode, c.prefactors, c.size) \
        and all(same_element(x, y) for x, y in zip(b.elements, c.elements))


def same_form(f, g):
    return same_basis(f.basis, g.basis) and list(f.terms) == list(g.terms) and all(
        same_element(x, y) for x, y in zip(f.terms.values(), g.terms.values()))


def test_held_selftest_inputs_equal_a_fresh_draw():
    # the held draws equal the inline draws they replace term for term and
    # bit for bit
    delta, leibniz = testing.DELTA_SAMPLES, testing.LEIBNIZ_SAMPLES
    held = testing._delta_inputs()
    fresh = oracles.delta_inputs(delta)
    assert [label for label, _ in held] == [label for label, _ in fresh]
    assert len(held) == 5
    for (label, alphas), (_, want) in zip(held, fresh):
        assert len(alphas) == len(want) == delta
        assert all(same_form(a, b) for a, b in zip(alphas, want)), label
    held = testing._leibniz_inputs()
    fresh = oracles.leibniz_inputs(leibniz)
    assert [label for label, _ in held] == [label for label, _ in fresh] == [
        "torus", "heisenberg"]
    for (label, pairs), (_, want) in zip(held, fresh):
        assert len(pairs) == len(want) == leibniz
        assert all(same_form(a, c) and same_form(b, d)
                   for (a, b), (c, d) in zip(pairs, want)), label
    basis, pairs = testing._carre_inputs()
    want_basis, want = oracles.carre_inputs()
    assert same_basis(basis, want_basis) and len(pairs) == len(want) == 25
    assert all(same_element(a, c) and same_element(b, d) for (a, b), (c, d) in zip(pairs, want))


def test_importing_the_battery_draws_nothing():
    env = dict(os.environ, PYTHONPATH=str(Path(ncdiff.__file__).parents[1]))
    code = ("import ncdiff.testing as t; print([f.cache_info().currsize for f in "
            "(t._delta_inputs, t._leibniz_inputs, t._carre_inputs)])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stdout == "[0, 0, 0]\n", done.stderr



def test_the_selftest_derives_afresh_on_every_call(monkeypatch):
    # the battery holds its inputs, not its results: once delta^2 != 0, the
    # next selftest on the same held inputs fails
    lines = []
    assert testing.run_selftest(out=lines.append)
    assert lines and not any("FAIL" in line for line in lines)
    monkeypatch.setattr(testing.forms, "delta", lambda alpha: alpha)
    lines.clear()
    assert not testing.run_selftest(out=lines.append)
    assert any(line.startswith("delta^2 = 0") and line.endswith("FAIL") for line in lines)
