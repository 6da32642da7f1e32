import cmath
import io
import itertools
import json
import math
import pickle
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import ncdiff.forms as F
from ncdiff import graph_algebra as ga
from ncdiff.cli import main
from ncdiff.forms import DifferentialBasis, DifferentialForm
from ncdiff.graph_algebra import (DirectedGraph, GraphElement, Path,
                                  common_range_pairs, edge_isometry,
                                  expand_projection_check,
                                  full_isometry_criterion, graph_to_text,
                                  h0_report, h0_report_json, is_closed,
                                  parse_graph, path_isometry, unit,
                                  vertex_commutator, vertex_projection)
from ncdiff.testing import random_graph_element

from conftest import diamond_graph, graph_corpus, line_graph, loop_graph, o2_graph, star_tree
from oracles import (assert_close_terms, assert_same_terms, dict_only, graph_loop_product,
                     graph_operand, held, wide_operand)
import test_carrier as contract
from test_carrier import (GRAPH_CASES, LOOP4, O2, GraphCase, array_product_matches_loop,
                          contract_test)


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


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="^line 4: duplicate edge 'e'$"):
        parse_graph("vertex a\nvertex b\nedge e a b\nedge e b a\n")


def test_path_validation():
    g = line_graph(2)
    with pytest.raises(ValueError):
        g.path(["e1", "e0"])  # wrong order, not composable
    p = g.path(["e0", "e1"])
    assert p.source == "v0" and p.range == "v2" and len(p) == 2
    assert len(g.vertex_path("v0")) == 0 and not g.vertex_path("v0")


def test_equal_paths_hash_equal():
    # equal paths built apart must meet as keys
    g = line_graph(2)
    p = g.path(["e0", "e1"])
    q = Path("v0", ("e0",) + ("e1",), "v2")
    r = g.extend(g.path(["e0"]), "e1")
    assert p == q == r and p is not q and q is not r
    assert hash(p) == hash(q) == hash(r)
    terms = {(p, g.vertex_path("v2")): 1.0}
    assert terms[(q, Path("v2", (), "v2"))] == 1.0 and (r, g.vertex_path("v2")) in terms
    assert {p, q, r} == {p} and p != g.path(["e1"]) and hash(g.vertex_path("v0")) != hash(p)
    assert repr(q) == "Path(e0.e1:v0->v2)"
    again = pickle.loads(pickle.dumps(q))
    assert again == q and hash(again) == hash(q)
    with pytest.raises(AttributeError):
        q.source = "v1"


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
    with pytest.raises(ValueError, match="unknown vertex"):
        vertex_commutator("z", se)


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


def test_h0_checks_max_len_as_the_key_set_does():
    # a float, a negative or a bool max_len is the key set's ValueError, not a
    # TypeError from the path enumeration
    for bad in (2.0, 1.5, -1, True, False):
        message = f"^max_len must be a nonnegative integer, got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            h0_report(star_tree(3), bad)
        with pytest.raises(ValueError, match=message):
            ga.GraphCarrierBasis(star_tree(3), bad)
    assert h0_report(star_tree(3), np.int64(2)) == h0_report(star_tree(3), 2)


# Printed, the closed terms of o2 at max_len 8 take about 1 GB, and the OOM
# killer strikes before a MemoryError can be raised, so the reports refuse
# what they could not print before they build it.
@pytest.mark.parametrize("graph, max_len, named", [
    (o2_graph(), 60, "max_len 60 has "),
    (loop_graph(1), 10 ** 9, "max_len 1000000000 has "),
    (loop_graph(1), 300, "max_len 300: 90601 closed terms, "),
    (line_graph(200), 200, "max_len 200 has "),
], ids=["o2-60", "loop-1e9", "loop-300", "line200-200"])
def test_h0_refuses_a_report_too_large_for_memory(graph, max_len, named):
    with pytest.raises(ValueError, match="^" + re.escape(named)):
        h0_report(graph, max_len)
    if "has" in named:  # the paths themselves are refused, for every key set
        with pytest.raises(ValueError, match="^" + re.escape(named)):
            ga.GraphCarrierBasis(graph, max_len)


def test_graph_carrier_refuses_too_many_common_range_pairs(monkeypatch):
    # a star of 2000 leaves has 4,001,999 common-range pairs at max_len 1, about
    # 720 MB as keys; they are counted from the paths grouped by range, so the
    # key set is refused before any key is built
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^max_len 1: 4001999 > 1048576 common-range pairs$"):
        ga.GraphCarrierBasis(star_tree(2000), 1)
    assert time.perf_counter() - start < 1.0
    keys = common_range_pairs(star_tree(5), 2)  # a key set of exactly the bound is built
    monkeypatch.setattr(ga, "_MAX_CARRIER_KEYS", len(keys))
    assert ga.GraphCarrierBasis(star_tree(5), 2).keys == keys
    monkeypatch.setattr(ga, "_MAX_CARRIER_KEYS", len(keys) - 1)
    with pytest.raises(ValueError, match=f"^max_len 2: {len(keys)} > {len(keys) - 1} common"):
        ga.GraphCarrierBasis(star_tree(5), 2)


def test_h0_lists_o2_to_length_8_and_refuses_length_9():
    assert len(h0_report(o2_graph(), 8)["closed_terms"]) == 511 ** 2
    message = "^max_len 9: 1046529 closed terms, 31416330 > 8388608 lines$"
    with pytest.raises(ValueError, match=message):
        h0_report(o2_graph(), 9)


@pytest.mark.parametrize("name", sorted(graph_corpus()))
def test_h0_bound_counts_at_least_the_printed_lines(name, monkeypatch):
    # each closed term prints at most 14 + |mu| + |nu| lines of JSON, and the
    # terms are the same-source common-range pairs in their order
    graph, limit = graph_corpus()[name], ga._MAX_H0_LINES
    for max_len in range(4):
        monkeypatch.setattr(ga, "_MAX_H0_LINES", limit)
        closed = h0_report(graph, max_len)["closed_terms"]
        assert closed == [(mu, nu) for mu, nu in common_range_pairs(graph, max_len)
                          if mu.source == nu.source]
        terms = h0_report_json({"closed_terms": closed, "projection_count": None,
                                "circle_flags": []})["closed_terms"]
        printed = json.dumps(terms, indent=2, sort_keys=True).count("\n") - 1
        bound = sum(14 + len(mu) + len(nu) for mu, nu in closed)
        assert printed <= bound
        monkeypatch.setattr(ga, "_MAX_H0_LINES", bound - 1)
        with pytest.raises(ValueError, match=f"^max_len {max_len}: {len(closed)} closed terms, "
                                             f"{bound} > {bound - 1} lines$"):
            h0_report(graph, max_len)
        monkeypatch.setattr(ga, "_MAX_H0_LINES", bound)
        assert h0_report(graph, max_len)["closed_terms"] == closed


@pytest.mark.parametrize("action", ["h0", "closed"])
def test_the_graph_reports_exit_2_above_their_bound(action, tmp_path):
    path = tmp_path / "o2.txt"
    path.write_text(graph_to_text(o2_graph()))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["graph", "--file", str(path), action, "--max-len", "60"])
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: max_len 60 has ") and err.getvalue().count("\n") == 1


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


# -- the array route of the product, held to the pair loop -------------------------

ORACLE_GRAPHS = {**graph_corpus(), "O2": o2_graph(), "loop4": loop_graph(4)}


def _count_loop_pairs(monkeypatch):
    calls = []
    term_product = ga._term_product

    def counted(t1, t2):
        calls.append(1)
        return term_product(t1, t2)
    monkeypatch.setattr(ga, "_term_product", counted)
    return calls


@pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
@pytest.mark.parametrize("sizes", [(16, 17), (40, 40), (100, 100)])
def test_array_product_matches_loop(name, sizes, rng):
    contract.products_match_the_loop(GraphCase(name, ORACLE_GRAPHS[name]), [sizes], rng)


def test_array_product_empty_operand(rng):
    contract.product_of_empty_operand(LOOP4, graph_operand(LOOP4.parent, rng, 40))


test_array_product_prunes_exact_cancellations = contract_test(
    contract.product_prunes_exact_cancellations, O2, prune_epsilon=[ga.PRUNE_EPSILON, 0.0, -1.0])


def test_array_product_keeps_nan(rng):
    contract.product_keeps_nan(LOOP4, *(graph_operand(LOOP4.parent, rng, 40) for _ in range(2)))


@pytest.mark.parametrize("len_x, len_y, takes_loop", [
    (2, 3, False),    # codes up to length 5 in base 64: about 2**60 terms fit in int64
    (3, 3, True),     # length 6: about 2**72 terms do not, so the pair loop runs
    (11, 11, True),   # a path's digits reach 2**62: the pair loop runs
])
def test_array_product_falls_back_beyond_int64(len_x, len_y, takes_loop, rng, monkeypatch):
    g = DirectedGraph(["o"], {f"e{i}": ("o", "o") for i in range(64)})
    x, y = wide_operand(g, rng, 20, len_x), wide_operand(g, rng, 20, len_y)
    if len_x == 11:
        x = x + GraphElement(g, {(g.path(["e63"] * 11), g.vertex_path("o")): 1.0})
        assert ga._term_codes(g, x.terms) is None
    calls = _count_loop_pairs(monkeypatch)
    got = x * y
    assert len(calls) == (len(x.terms) * len(y.terms) if takes_loop else 0)
    assert got.terms == array_product_matches_loop(GraphCase, x, y).terms
    assert len(got.terms) > 20


@pytest.mark.parametrize("foreign", [
    Path("zz", (), "zz"),                      # a vertex not in the graph
    Path("c0", ("zz",), "c1"),                 # an edge not in the graph
    Path("c0", ("l1",), "c2"),                 # an edge from another vertex
    Path("c0", ("l0", "l2"), "c3"),            # edges that do not compose
    Path("c0", ("l0",), "c2"),                 # a range that is not the edge's
])
def test_array_product_foreign_paths_take_the_loop(foreign, rng, monkeypatch):
    g = loop_graph(4)
    x, y = graph_operand(g, rng, 30), graph_operand(g, rng, 30)
    x = GraphElement(g, {**x.terms, (foreign, foreign): 2.0})
    calls = _count_loop_pairs(monkeypatch)
    got = x * y
    assert len(calls) == len(x.terms) * len(y.terms)
    assert got.terms == graph_loop_product(x, y).terms
    assert (y * x).terms == graph_loop_product(y, x).terms


def test_small_products_stay_on_the_loop(rng, monkeypatch):
    g = LOOP4.parent
    se = edge_isometry(g, "l0")
    contract.small_products_stay_on_the_loop(
        LOOP4, monkeypatch, se, se.adjoint(), {(g.path(["l0"]),) * 2},
        *(graph_operand(g, rng, n) for n in (16, 16, 17)))


# -- elements held as path codes, held to the loops ---------------------------------

HELD_SIZES = [3, 40, 193, 600]

# the route contract of tests/test_carrier.py on the graph cases
test_held_sums_match_the_loop = contract_test(
    contract.sums_match_the_loop, GRAPH_CASES, n_terms=HELD_SIZES)
test_held_unary_routes_match_the_loop = contract_test(
    contract.unary_routes_match_the_loop, GRAPH_CASES, n_terms=HELD_SIZES)
test_held_products_match_the_loop = contract_test(
    contract.held_products_match_the_loop, GRAPH_CASES)
test_mixed_representation_chains_match_the_loop = contract_test(
    contract.mixed_chains_match_the_loop, GRAPH_CASES)
test_held_routes_prune_as_the_loop = contract_test(
    contract.routes_prune_as_the_loop, LOOP4, prune_epsilon=[ga.PRUNE_EPSILON, 0.0, -1.0])
test_uncoded_elements_stay_dicts = contract_test(contract.uncodable_stay_dicts, LOOP4)


@pytest.mark.parametrize("n_terms", HELD_SIZES)
@pytest.mark.parametrize("case", GRAPH_CASES, ids=str)
def test_held_vertex_commutators_match_the_loop(case, n_terms, rng):
    a, _ = case.pair(rng, n_terms)
    g = a.graph
    for v in g.vertices:
        p = GraphElement.term(g, g.vertex_path(v), g.vertex_path(v), 0.8 - 0.3j)
        want = GraphCase.loop_route(lambda x: p.ad()(x), a)
        assert want.terms == vertex_commutator(v, a, 0.8 - 0.3j).terms
        for x in (held(a), dict_only(a)):
            got = p.ad()(x)
            assert not got._keyed  # the loop, over the paths of keyed()
            assert_same_terms(got, want)


def test_held_routes_keep_nan(rng):
    a, t0 = contract.routes_keep_nan(LOOP4, *LOOP4.pair(rng, 60))
    g = a.graph
    # a vertex commutator keeps the nan where the vertex is a source of its term
    for v in (t0[0].source, t0[1].source, next(v for v in g.vertices
                                                if v not in (t0[0].source, t0[1].source))):
        p = vertex_projection(g, v)
        want = LOOP4.loop_route(lambda x: p.ad()(x), a)
        assert (t0 in want.terms) == (v in (t0[0].source, t0[1].source))
        assert_same_terms(p.ad()(held(a)), want)


def test_held_routes_on_empty_operands(rng):
    contract.routes_on_empty_operands(LOOP4, LOOP4.pair(rng, 60)[0])


def test_term_codes_past_int64_take_the_loops(rng, monkeypatch):
    # paths of 10 edges in base 64 have codes near 2**60: each is held, but
    # the term codes of a sum or a product would pass int64
    g = DirectedGraph(["o"], {f"e{i}": ("o", "o") for i in range(64)})
    o = g.vertex_path("o")
    x, y = (GraphElement(g, {(g.path([f"e{e}" for e in rng.integers(0, 64, 10)]), o):
                             complex(*rng.standard_normal(2)) for _ in range(20)})
            for _ in range(2))
    hx, hy = held(x), held(y)
    calls = _count_loop_pairs(monkeypatch)
    for f in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y.adjoint()):
        got = f(hx, hy)
        assert not got._keyed
        assert_close_terms(got, GraphCase.loop_route(f, x, y))
    assert calls  # the product took the pair loop


def test_graph_carrier_basis_keys_unchanged(rng):
    from ncdiff import cohomology as C

    g = star_tree(5)
    carrier = C.GraphCarrierBasis(g, 2)
    assert carrier.keys == common_range_pairs(g, 2)
    x = GraphElement(g, {t: complex(*rng.standard_normal(2)) for t in carrier.keys[::3]})
    assert carrier.entries(held(x)) == carrier.entries(x)
    basis = DifferentialBasis([vertex_projection(g, v) for v in g.vertices], mode="selfadjoint")
    report = C.deRham_dims(basis, carrier)
    # the frozen deRham_dims star5 reference of the benchmark
    assert [(r.dim_ker, r.h_dim, r.rank_prev) for r in report.degrees] == [
        (9, 9, 0), (65, 45, 20), (170, 90, 80), (210, 90, 120), (125, 45, 80), (29, 9, 20)]


def test_terms_decoded_from_codes_are_paths(rng, monkeypatch):
    x = contract.terms_decode_once(LOOP4, LOOP4.pair(rng, 60)[0], monkeypatch)
    for mu, nu in x.terms:
        assert hash(mu) == hash(Path(mu.source, mu.edges, mu.range))


def test_held_elements_pickle(rng):
    contract.held_elements_pickle(LOOP4, *LOOP4.pair(rng, 40))


def test_small_sums_mix_arrays_and_dicts(rng):
    contract.small_sums_mix_arrays_and_dicts(LOOP4, LOOP4.element(rng, 5), LOOP4.element(rng, 7))
