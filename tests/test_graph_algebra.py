import cmath
import itertools
import math

import numpy as np
import pytest

import ncdiff.forms as F
from ncdiff.forms import DifferentialBasis, DifferentialForm
from ncdiff.graph_algebra import (DirectedGraph, GraphElement, edge_isometry,
                                  expand_projection_check,
                                  full_isometry_criterion, graph_to_text,
                                  h0_report, h0_report_json, is_closed,
                                  parse_graph, path_isometry, unit,
                                  vertex_commutator, vertex_projection)
from ncdiff.testing import random_graph_element

from conftest import diamond_graph, graph_corpus, line_graph, loop_graph, star_tree


def two_vertex():
    return DirectedGraph(["v", "w"], {"e": ("v", "w")})


def test_nan_coefficient_survives_cancellation():
    g = two_vertex()
    p, q = (vertex_projection(g, v) for v in g.vertices)
    x = p.scale(math.inf) + q
    diff = x - x
    assert list(diff.terms) == list(p.terms)
    assert all(cmath.isnan(c) for c in diff.terms.values())
    assert math.isnan(diff.norm())
    # the norm sees a nan whatever the term order
    (kp,), (kq,) = p.terms, q.terms
    for pairs in ([(kp, math.nan), (kq, 1.0)], [(kq, 1.0), (kp, math.nan)]):
        assert math.isnan(GraphElement(g, dict(pairs)).norm())


def test_parse_and_text_roundtrip():
    text = "# a comment\nvertex v\nvertex w\nedge e v w\n"
    g = parse_graph(text)
    assert g.vertices == ("v", "w")
    assert g.edges == {"e": ("v", "w")}
    g2 = parse_graph(graph_to_text(g))
    assert g2.vertices == g.vertices and g2.edges == g.edges


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_graph("vertex v\nedge e v missing\n")
    with pytest.raises(ValueError):
        parse_graph("gibberish line\n")


def test_path_validation():
    g = line_graph(2)
    with pytest.raises(ValueError):
        g.path(["e1", "e0"])  # wrong order, not composable
    p = g.path(["e0", "e1"])
    assert p.source == "v0" and p.range == "v2" and len(p) == 2


def test_ck_mul_examples():
    g = two_vertex()
    se = edge_isometry(g, "e")
    pv = vertex_projection(g, "v")
    pw = vertex_projection(g, "w")
    # s_e^* s_e = p_{r(e)}
    assert (se.adjoint() * se - pw).norm() == 0.0
    # s_mu p_{r(mu)} = s_mu
    assert (se * pw - se).norm() == 0.0
    # p_{s(e)} s_e = s_e
    assert (pv * se - se).norm() == 0.0
    # s_e s_e^* != p_v cannot be decided syntactically, but the product is a term
    assert len((se * se.adjoint()).terms) == 1


def test_ck_mul_orthogonality():
    g = DirectedGraph(["a", "b"], {"e": ("a", "b"), "f": ("a", "b")})
    se, sf = edge_isometry(g, "e"), edge_isometry(g, "f")
    assert (se.adjoint() * sf).norm() == 0.0
    assert (sf.adjoint() * se).norm() == 0.0


def test_ck_adjoint():
    g = two_vertex()
    pv = vertex_projection(g, "v")
    assert (pv.adjoint() - pv).norm() == 0.0
    se = edge_isometry(g, "e")
    (mu, nu), = se.adjoint().terms
    assert mu.edges == () and nu.edges == ("e",)
    x = se.scale(2 + 1j) + pv
    assert (x.adjoint().adjoint() - x).norm() == 0.0


def test_vertex_commutator_cases():
    g = DirectedGraph(["v", "w", "u"], {"e": ("v", "w")})
    se = edge_isometry(g, "e")
    assert (vertex_commutator("v", se) - se).norm() == 0.0
    assert (vertex_commutator("w", se) + se).norm() == 0.0
    assert vertex_commutator("u", se).norm() == 0.0
    gl = loop_graph(1)
    sl = edge_isometry(gl, "l0")
    assert vertex_commutator("c0", sl).norm() == 0.0


def test_is_closed():
    g = two_vertex()
    pv = vertex_projection(g, "v")
    t, = pv.terms
    assert is_closed(t)
    se = edge_isometry(g, "e")
    te, = se.terms
    assert not is_closed(te)
    mu = g.path(["e"])
    assert is_closed((mu, mu))


def test_closed_iff_delta_zero():
    # cross-module check against the forms derivative, terms of length <= 3
    for g in graph_corpus().values():
        basis = DifferentialBasis([vertex_projection(g, v) for v in g.vertices],
                                  mode="selfadjoint", label="{p_v}")
        paths = g.paths_up_to(3)
        by_range = {}
        for p in paths:
            by_range.setdefault(p.range, []).append(p)
        for group in by_range.values():
            for mu in group:
                for nu in group:
                    x = GraphElement.term(g, mu, nu)
                    d = F.delta(DifferentialForm.from_element(basis, x))
                    assert (d.norm() == 0.0) == is_closed((mu, nu))


def test_delta_term_identity():
    # delta(s_mu s_nu^*) = s_mu s_nu^* dp_{s(mu)} - s_mu s_nu^* dp_{s(nu)}
    for g in graph_corpus().values():
        vidx = {v: i for i, v in enumerate(g.vertices)}
        basis = DifferentialBasis([vertex_projection(g, v) for v in g.vertices],
                                  mode="selfadjoint", label="{p_v}")
        paths = g.paths_up_to(3)
        by_range = {}
        for p in paths:
            by_range.setdefault(p.range, []).append(p)
        for group in by_range.values():
            for mu in group:
                for nu in group:
                    x = GraphElement.term(g, mu, nu)
                    d = F.delta(DifferentialForm.from_element(basis, x))
                    expect = {}
                    if mu.source != nu.source:
                        expect[((vidx[mu.source],), ())] = x
                        expect[((vidx[nu.source],), ())] = -x
                    want = DifferentialForm(basis, expect)
                    assert (d - want).norm() == 0.0


def test_products_keep_range_condition(rng):
    g = diamond_graph()
    for _ in range(50):
        x = random_graph_element(g, rng)
        y = random_graph_element(g, rng)
        for mu, nu in (x * y).terms:
            assert mu.range == nu.range


def test_ck_mul_associativity():
    g = line_graph(3)
    paths = g.paths_up_to(3)
    by_range = {}
    for p in paths:
        by_range.setdefault(p.range, []).append(p)
    terms = [(mu, nu) for group in by_range.values()
             for mu in group for nu in group]
    elems = [GraphElement.term(g, mu, nu) for mu, nu in terms]
    for a, b, c in itertools.product(elems, repeat=3):
        assert ((a * b) * c - a * (b * c)).norm() == 0.0


def test_full_isometry_criterion():
    ln = line_graph(2)
    mu = ln.path(["e0", "e1"])
    assert full_isometry_criterion(ln, mu)
    # second exit from v0 breaks it
    g2 = DirectedGraph(["v0", "v1", "v2", "x"],
                       {"e0": ("v0", "v1"), "e1": ("v1", "v2"), "b": ("v0", "x")})
    assert not full_isometry_criterion(g2, g2.path(["e0", "e1"]))
    # single edge: true exactly when its source has one exit
    assert full_isometry_criterion(ln, ln.path(["e0"]))
    assert not full_isometry_criterion(g2, g2.path(["e0"]))
    with pytest.raises(ValueError):
        full_isometry_criterion(ln, ln.vertex_path("v0"))


def test_expansion_matches_criterion():
    # bounded completeness expansion verifies exactly the criterion-true paths
    for g in graph_corpus().values():
        for mu in g.paths_up_to(3):
            if len(mu) == 0:
                continue
            assert expand_projection_check(g, mu) == full_isometry_criterion(g, mu)


def test_h0_star_tree():
    rep = h0_report(star_tree(5), 3)
    assert rep["projection_count"] == 5
    assert rep["circle_flags"] == []
    closed = rep["closed_terms"]
    assert all(mu.source == nu.source and mu.range == nu.range for mu, nu in closed)


def test_h0_single_vertex():
    g = DirectedGraph(["z"], {})
    rep = h0_report(g, 2)
    assert rep["projection_count"] == 1
    assert len(rep["closed_terms"]) == 1


def test_h0_diamond_merging():
    # two-exit fork: p_s splits into two genuinely smaller projections, and
    # single-exit tails collapse onto them
    rep = h0_report(diamond_graph(), 3)
    assert rep["projection_count"] == 6  # 4 vertices + the two fork branches


def test_h0_zero_length():
    rep = h0_report(star_tree(3), 0)
    assert rep["projection_count"] == 3
    assert all(len(mu) == 0 and len(nu) == 0 for mu, nu in rep["closed_terms"])


def test_h0_loop_flag():
    rep = h0_report(loop_graph(1), 2)
    assert rep["projection_count"] is None
    assert len(rep["circle_flags"]) == 1
    rep3 = h0_report(loop_graph(3), 2)
    assert len(rep3["circle_flags"]) == 1
    # an exit kills the flag
    from conftest import loop_with_exit
    assert h0_report(loop_with_exit(), 2)["circle_flags"] == []


def test_h0_json_shape():
    rep = h0_report_json(h0_report(star_tree(3), 2))
    assert set(rep) == {"closed_terms", "projection_count", "circle_flags"}
    for t in rep["closed_terms"]:
        assert set(t) == {"mu", "nu"}
        assert set(t["mu"]) == {"source", "edges", "range"}


def test_unit_is_identity(rng):
    g = diamond_graph()
    one = unit(g)
    for _ in range(20):
        x = random_graph_element(g, rng)
        assert (one * x - x).norm() < 1e-14
        assert (x * one - x).norm() < 1e-14


def test_path_isometry_consistency():
    g = line_graph(3)
    mu = g.path(["e0", "e1", "e2"])
    smu = path_isometry(g, mu)
    step = edge_isometry(g, "e0") * edge_isometry(g, "e1") * edge_isometry(g, "e2")
    assert (smu - step).norm() == 0.0
    t1, = list(smu.terms)
    t2 = list((smu * smu.adjoint()).terms)[0]
    product = GraphElement.term(g, *t1) * GraphElement.term(g, t1[1], t1[0])
    assert product.terms == {t2: 1.0 + 0j}
