import cmath
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

import ncdiff.forms as F
from ncdiff import graph_algebra as ga
from ncdiff.forms import DifferentialBasis, DifferentialForm
from ncdiff.graph_algebra import (DirectedGraph, GraphElement, Path,
                                  _ARRAY_PAIRS, _array_product,
                                  common_range_pairs, edge_isometry,
                                  expand_projection_check,
                                  full_isometry_criterion, graph_to_text,
                                  h0_report, h0_report_json, is_closed,
                                  parse_graph, path_isometry, unit,
                                  vertex_commutator, vertex_projection)
from ncdiff.testing import random_graph_element

from conftest import (diamond_graph, graph_corpus, line_graph, loop_graph, o2_graph,
                      star_tree)
from oracles import graph_loop_product


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


def test_equal_paths_hash_equal():
    # the hash is kept per path: equal paths built apart must still meet as keys
    g = line_graph(2)
    p = g.path(["e0", "e1"])
    q = Path("v0", ("e0",) + ("e1",), "v2")
    r = g.extend(g.path(["e0"]), "e1")
    assert p == q == r and p is not q and q is not r
    assert hash(p) == hash(q) == hash(r) == hash(("v0", ("e0", "e1"), "v2"))
    terms = {(p, g.vertex_path("v2")): 1.0}
    assert terms[(q, Path("v2", (), "v2"))] == 1.0 and (r, g.vertex_path("v2")) in terms
    assert {p, q, r} == {p} and p != g.path(["e1"]) and hash(g.vertex_path("v0")) != hash(p)
    assert [f.name for f in dataclasses.fields(Path)] == ["source", "edges", "range"]
    assert repr(q) == "Path(e0.e1:v0->v2)" and dataclasses.asdict(q) == {
        "source": "v0", "edges": ("e0", "e1"), "range": "v2"}
    moved = dataclasses.replace(q, range="v9")
    assert moved.range == "v9" and hash(moved) == hash(("v0", ("e0", "e1"), "v9"))
    again = pickle.loads(pickle.dumps(q))
    assert again == q and hash(again) == hash(q)
    with pytest.raises(dataclasses.FrozenInstanceError):
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


def _operand(graph, rng, n: int, max_len: int = 4) -> GraphElement:
    """Every vertex-only term, then distinct random term keys: n terms, or
    every key of length at most ``max_len`` when there are fewer."""
    pairs = common_range_pairs(graph, max_len)
    vertex_only = [i for i, (mu, nu) in enumerate(pairs) if not mu.edges and not nu.edges]
    rest = [i for i in range(len(pairs)) if i not in vertex_only]
    n = min(n, len(pairs))
    idx = vertex_only[:n] + list(rng.choice(rest, n - len(vertex_only[:n]), replace=False))
    coeffs = rng.standard_normal((n, 2))
    return GraphElement(graph, {pairs[i]: complex(*c) for i, c in zip(idx, coeffs)})


def _assert_array_matches_loop(x, y):
    """Same key set as the pair loop, coefficients within 1e-13 relative (or
    1e-13 of the largest possible summand, for a coefficient that cancels)."""
    got, want = _array_product(x, y), graph_loop_product(x, y)
    assert set(got.terms) == set(want.terms)
    scale = x.norm() * y.norm()
    for t, c in want.terms.items():
        assert cmath.isclose(got.terms[t], c, rel_tol=1e-13, abs_tol=1e-13 * scale), t
    return got


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
def test_array_product_matches_loop(name, sizes, rng, monkeypatch):
    g = ORACLE_GRAPHS[name]
    calls = _count_loop_pairs(monkeypatch)
    x, y = (_operand(g, rng, n) for n in sizes)
    assert len(x.terms) * len(y.terms) > _ARRAY_PAIRS
    assert all((g.vertex_path(v),) * 2 in x.terms for v in g.vertices)
    for a, b in ((x, y), (y, x)):
        got = _assert_array_matches_loop(a, b)
        n_loop = len(calls)
        assert (a * b).terms == got.terms and len(calls) == n_loop  # the array route
        assert all(mu.range == nu.range for mu, nu in got.terms)


def test_array_product_empty_operand(rng):
    g = loop_graph(4)
    x = _operand(g, rng, 40)
    zero = GraphElement.zero(g)
    assert _array_product(x, zero).terms == {}
    assert _array_product(zero, x).terms == {}
    assert (zero * x).terms == {} and (x * zero).terms == {}


@pytest.mark.parametrize("prune_epsilon", [ga.PRUNE_EPSILON, 0.0, -1.0])
def test_array_product_prunes_exact_cancellations(prune_epsilon, rng, monkeypatch):
    # (sum_k s_a^k)(sum_w c_w (s_w - s_aw)) = sum_w c_w (s_w - s_{a^10 w}) on O_2,
    # over the 15 words w in a, b that start with b: every inner term cancels exactly
    monkeypatch.setattr(ga, "PRUNE_EPSILON", prune_epsilon)
    g = o2_graph()
    o = g.vertex_path("o")
    words = [("b",) + tail for n in range(4) for tail in itertools.product("ab", repeat=n)]
    x = GraphElement(g, {(g.path(["a"] * k) if k else o, o): 1.0 for k in range(10)})
    y = GraphElement(g, {})
    for w in words:
        c = complex(*rng.standard_normal(2))
        y = y + GraphElement(g, {(g.path(w), o): c, (g.path(("a",) + w), o): -c})
    kept = range(11) if prune_epsilon < 0 else (0, 10)
    want = {g.path(["a"] * k + list(w)) for k in kept for w in words}
    for a, b, side in ((x, y, 0), (y.adjoint(), x.adjoint(), 1)):
        got = _assert_array_matches_loop(a, b)
        assert {t[side] for t in got.terms} == want
        assert all(t[1 - side] == o for t in got.terms)


def test_array_product_keeps_nan(rng):
    g = loop_graph(4)
    x, y = _operand(g, rng, 40), _operand(g, rng, 40)
    t0 = next(iter(x.terms))
    x = GraphElement(g, {**x.terms, t0: complex(math.nan, 0.0)})
    got, want = _array_product(x, y), graph_loop_product(x, y)
    assert set(got.terms) == set(want.terms)
    nan_keys = {t for t, c in want.terms.items() if cmath.isnan(c)}
    assert nan_keys and nan_keys == {t for t, c in got.terms.items() if cmath.isnan(c)}
    assert math.isnan((x * y).norm())


def _wide_operand(g, rng, n, max_len):
    """n terms (mu, nu) of random words of length 0..max_len in the edges 61-63."""
    o = g.vertex_path("o")
    terms = {}
    while len(terms) < n:
        mu, nu = (g.path([f"e{e}" for e in rng.integers(61, 64, k)]) if k else o
                  for k in rng.integers(0, max_len + 1, 2))
        terms[(mu, nu)] = complex(*rng.standard_normal(2))
    return GraphElement(g, terms)


@pytest.mark.parametrize("len_x, len_y, takes_loop", [
    (2, 3, False),    # codes up to length 5 in base 64: about 2**60 terms fit in int64
    (3, 3, True),     # length 6: about 2**72 terms do not, so the pair loop runs
    (11, 11, True),   # a path's digits reach 2**62: the pair loop runs
])
def test_array_product_falls_back_beyond_int64(len_x, len_y, takes_loop, rng, monkeypatch):
    g = DirectedGraph(["o"], {f"e{i}": ("o", "o") for i in range(64)})
    x, y = _wide_operand(g, rng, 20, len_x), _wide_operand(g, rng, 20, len_y)
    if len_x == 11:
        x = x + GraphElement(g, {(g.path(["e63"] * 11), g.vertex_path("o")): 1.0})
        assert ga._term_codes(g, x.terms) is None
    calls = _count_loop_pairs(monkeypatch)
    got = x * y
    assert len(calls) == (len(x.terms) * len(y.terms) if takes_loop else 0)
    assert got.terms == _assert_array_matches_loop(x, y).terms
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
    x, y = _operand(g, rng, 30), _operand(g, rng, 30)
    x = GraphElement(g, {**x.terms, (foreign, foreign): 2.0})
    calls = _count_loop_pairs(monkeypatch)
    got = x * y
    assert len(calls) == len(x.terms) * len(y.terms)
    assert got.terms == graph_loop_product(x, y).terms
    assert (y * x).terms == graph_loop_product(y, x).terms


def test_small_products_stay_on_the_loop(rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("array route entered")
    monkeypatch.setattr(ga, "_array_product", refuse)
    g = loop_graph(4)
    se = edge_isometry(g, "l0")
    assert set((se * se.adjoint()).terms) == {(g.path(["l0"]),) * 2}
    x, y = _operand(g, rng, 16), _operand(g, rng, 16)
    x * y  # 256 pairs: at the cut
    with pytest.raises(AssertionError, match="array route"):
        x * _operand(g, rng, 17)


# -- elements held as path codes, held to the loops ---------------------------------

HELD_GRAPHS = {"loop4": (loop_graph(4), 7), "O2": (o2_graph(), 4),
               "diamond": (diamond_graph(), 2)}
HELD_SIZES = [3, 40, 193, 600]
LIFTED = 10 ** 9


def _held(x):
    """A copy of x held as path codes only, as the array routes return elements."""
    return x._held(*GraphElement(x.graph, x.terms)._arrays())


def _dict_only(x):
    """A copy of x held as a dict only."""
    return GraphElement(x.graph, x.terms)


def _loop_route(f, *xs):
    """f on dict-only copies of xs with every cut lifted: the loops, the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ga, "_ARRAY_PAIRS", LIFTED)
        return f(*(_dict_only(x) for x in xs))


def _assert_same_terms(got, want):
    """Equal keys and exactly equal coefficients, zero signs included; a nan
    stands where the oracle has one."""
    assert all(type(mu) is Path and type(nu) is Path for mu, nu in got.terms)
    assert all(type(c) is complex for c in got.terms.values())
    assert set(got.terms) == set(want.terms)
    for t, c in want.terms.items():
        g = got.terms[t]
        assert (g == c and math.copysign(1, g.real) == math.copysign(1, c.real)
                and math.copysign(1, g.imag) == math.copysign(1, c.imag)
                or cmath.isnan(c) and cmath.isnan(g)), t


def _assert_close_terms(got, want, tol=1e-13):
    """Equal keys and coefficients within ``tol`` (relative above modulus 1)."""
    assert set(got.terms) == set(want.terms)
    for t, c in want.terms.items():
        if cmath.isnan(c):
            assert cmath.isnan(got.terms[t]), t
        else:
            assert abs(got.terms[t] - c) <= tol * max(1.0, abs(c)), t


def _held_pair(name, rng, n_terms):
    """Two operands of up to ``n_terms`` terms sharing many keys; on a quarter
    of the shared ones, b is exactly -a, so a + b cancels there."""
    g, max_len = HELD_GRAPHS[name]
    pairs = common_range_pairs(g, max_len)
    n = min(n_terms, len(pairs))
    a, b = (GraphElement(g, {pairs[i]: complex(*rng.standard_normal(2))
                             for i in rng.choice(len(pairs), n, replace=False)})
            for _ in range(2))
    shared = [t for t in a.terms if t in b.terms]
    return a, GraphElement(g, {**b.terms, **{t: -a.terms[t] for t in shared[::4]}})


def _route_cases(a, b):
    """(a, b) held as path codes, as dicts, and mixed."""
    return [(_held(a), _held(b)), (_dict_only(a), _dict_only(b)),
            (_held(a), _dict_only(b)), (_dict_only(a), _held(b))]


@pytest.mark.parametrize("n_terms", HELD_SIZES)
@pytest.mark.parametrize("name", list(HELD_GRAPHS))
def test_held_sums_match_the_loop(name, n_terms, rng):
    a, b = _held_pair(name, rng, n_terms)
    want = {"a+b": _loop_route(lambda x, y: x + y, a, b),
            "a-b": _loop_route(lambda x, y: x - y, a, b),
            "b-a": _loop_route(lambda x, y: y - x, a, b)}
    if n_terms >= 40:
        assert len(want["a+b"].terms) < len(set(a.terms) | set(b.terms))  # some cancel
    for x, y in _route_cases(a, b):
        got = {"a+b": x + y, "a-b": x - y, "b-a": y - x}
        for key, out in got.items():
            # two operands held as codes send the sum to the merge
            assert bool(out._keyed) == bool(x._keyed and y._keyed)
            _assert_same_terms(out, want[key])


@pytest.mark.parametrize("n_terms", HELD_SIZES)
@pytest.mark.parametrize("name", list(HELD_GRAPHS))
def test_held_unary_routes_match_the_loop(name, n_terms, rng):
    a, _ = _held_pair(name, rng, n_terms)
    cs = (0.3 - 1.7j, 2, -1e-13)
    neg = _loop_route(lambda x: -x, a)
    scaled = [_loop_route(lambda x: x.scale(c), a) for c in cs]
    adj = _loop_route(lambda x: x.adjoint(), a)
    norm = _loop_route(lambda x: x.norm(), a)
    for x in (_held(a), _dict_only(a)):
        _assert_same_terms(-x, neg)
        for c, want in zip(cs, scaled):
            _assert_same_terms(x.scale(c), want)
        got = x.adjoint()
        assert bool(got._keyed) == bool(x._keyed)
        _assert_same_terms(got, adj)
        _assert_same_terms(got.adjoint(), a)
        assert abs(x.norm() - norm) <= 1e-15 * norm  # numpy's modulus may differ in the last bit
    if n_terms >= 40:
        assert len(scaled[2].terms) < len(a.terms)  # the small scale prunes some terms


@pytest.mark.parametrize("n_terms", HELD_SIZES)
@pytest.mark.parametrize("name", list(HELD_GRAPHS))
def test_held_vertex_commutators_match_the_loop(name, n_terms, rng):
    a, _ = _held_pair(name, rng, n_terms)
    g = a.graph
    for v in g.vertices:
        p = GraphElement.term(g, g.vertex_path(v), g.vertex_path(v), 0.8 - 0.3j)
        want = _loop_route(lambda x: p.ad()(x), a)
        assert want.terms == vertex_commutator(v, a, 0.8 - 0.3j).terms
        for x in (_held(a), _dict_only(a)):
            got = p.ad()(x)
            assert not got._keyed  # the loop, over the paths of keyed()
            _assert_same_terms(got, want)


@pytest.mark.parametrize("name", list(HELD_GRAPHS))
def test_held_products_match_the_loop(name, rng):
    a, b = _held_pair(name, rng, 40)
    want = graph_loop_product(a, b)
    for x, y in _route_cases(a, b):
        got = x * y
        assert got._keyed  # the array route ran and returned codes
        _assert_close_terms(got, want)


@pytest.mark.parametrize("name", list(HELD_GRAPHS))
def test_mixed_representation_chains_match_the_loop(name, rng):
    g = HELD_GRAPHS[name][0]
    v = g.vertices[0]
    p = GraphElement.term(g, g.vertex_path(v), g.vertex_path(v), 1.5j)
    x, y = _held_pair(name, rng, 40)                  # a dict, above the pair cut
    y = _held(y)                                      # codes
    z, w = _held_pair(name, rng, 5)                   # a small dict
    w = _held(w)                                      # small codes

    def chain(x, y, z, w):
        xy = x * y
        return (p.ad()((xy * z - y.adjoint() * x.scale(0.5j) + (w * z) * (x + y)).adjoint())
                - (z * w) * xy + w * w - p.ad()(y))
    _assert_close_terms(chain(x, y, z, w), _loop_route(chain, x, y, z, w))


@pytest.mark.parametrize("prune_epsilon", [ga.PRUNE_EPSILON, 0.0, -1.0])
def test_held_routes_prune_as_the_loop(prune_epsilon, monkeypatch):
    monkeypatch.setattr(ga, "PRUNE_EPSILON", prune_epsilon)
    g = loop_graph(4)
    keys = common_range_pairs(g, 7)[:50]
    a = GraphElement(g, {t: complex(k + 1, -k) for k, t in enumerate(keys)})
    b = GraphElement(g, {t: complex(-k - 1, k + (k % 2) * 1e-13) for k, t in enumerate(keys)})
    v = g.vertices[0]
    p = GraphElement.term(g, g.vertex_path(v), g.vertex_path(v))
    cases = {"sum": lambda x, y: x + y, "difference": lambda x, y: x - y,
             "zero scale": lambda x, y: x.scale(0), "tiny scale": lambda x, y: y.scale(1e-12),
             "adjoint": lambda x, y: (x + y).adjoint(), "vertex": lambda x, y: p.ad()(x + y)}
    for f in cases.values():
        want = _loop_route(f, a, b)
        for x, y in _route_cases(a, b):
            _assert_same_terms(f(x, y), want)
    kept = len((_held(a) + _held(b)).terms)
    assert kept == {ga.PRUNE_EPSILON: 0, 0.0: 25, -1.0: 50}[prune_epsilon]


def test_held_routes_keep_nan(rng):
    a, b = _held_pair("loop4", rng, 60)
    t0 = next(t for t in a.terms if t[0].source != t[1].source)
    a = GraphElement(a.graph, {**a.terms, t0: complex(math.nan, 1.0)})
    g = a.graph
    for x in (_held(a), _dict_only(a)):
        assert math.isnan(x.norm())
        assert cmath.isnan((x + _held(b)).terms[t0])
        assert cmath.isnan(x.adjoint().terms[t0[::-1]])
        assert cmath.isnan(x.scale(2j).terms[t0]) and cmath.isnan((-x).terms[t0])
        assert math.isnan((x * _held(b)).norm())
    for v in (t0[0].source, t0[1].source, next(v for v in g.vertices
                                                if v not in (t0[0].source, t0[1].source))):
        p = vertex_projection(g, v)
        want = _loop_route(lambda x: p.ad()(x), a)
        assert (t0 in want.terms) == (v in (t0[0].source, t0[1].source))
        _assert_same_terms(p.ad()(_held(a)), want)
    _assert_same_terms(_held(a) - _held(b), _loop_route(lambda x, y: x - y, a, b))


def test_held_routes_on_empty_operands(rng):
    a = _held(_held_pair("loop4", rng, 60)[0])
    g = a.graph
    zero = GraphElement.zero(g)
    held_zero = zero._held(np.zeros((0, 2), np.int64), np.zeros(0, complex))
    for z in (zero, held_zero):
        _assert_same_terms(a + z, a)
        _assert_same_terms(z + a, a)
        _assert_same_terms(z - a, -a)
        assert (a - a).terms == {}
        assert (z * a).terms == {} and (a * z).terms == {}
    assert (held_zero + held_zero).terms == {} and held_zero.adjoint().terms == {}
    assert held_zero.norm() == 0.0 and (-held_zero).norm() == 0.0
    assert held_zero.scale(3).terms == {}
    assert vertex_projection(g, g.vertices[0]).ad()(held_zero).terms == {}


def _uncoded_operands(rng):
    """Elements that cannot be coded: a path foreign to the graph, and a
    path of 11 edges in base 64, whose digits reach 2**62."""
    g = loop_graph(4)
    x = _operand(g, rng, 60)
    foreign = Path("c0", ("zz",), "c1")
    yield GraphElement(g, {**x.terms, (foreign, foreign): 2.0}), x
    g64 = DirectedGraph(["o"], {f"e{i}": ("o", "o") for i in range(64)})
    y = _wide_operand(g64, rng, 60, 2)
    o = g64.vertex_path("o")
    yield GraphElement(g64, {**y.terms, (g64.path(["e63"] * 11), o): 1.0}), y


def test_uncoded_elements_stay_dicts(rng):
    for x, small in _uncoded_operands(rng):
        assert x._arrays() is None and x._keyed is False
        held = _held(small)
        for f in (lambda x: x + held, lambda x: held - x, lambda x: -x,
                  lambda x: x.scale(2), lambda x: x.adjoint(), lambda x: x * held,
                  lambda x: held * x):
            got = f(x)
            assert not got._keyed
            _assert_close_terms(got, _loop_route(f, x))
        assert x.norm() == _loop_route(lambda x: x.norm(), x)


def test_term_codes_past_int64_take_the_loops(rng, monkeypatch):
    # paths of 10 edges in base 64 have codes near 2**60: each is held, but
    # the term codes of a sum or a product would pass int64
    g = DirectedGraph(["o"], {f"e{i}": ("o", "o") for i in range(64)})
    o = g.vertex_path("o")
    x, y = (GraphElement(g, {(g.path([f"e{e}" for e in rng.integers(0, 64, 10)]), o):
                             complex(*rng.standard_normal(2)) for _ in range(20)})
            for _ in range(2))
    hx, hy = _held(x), _held(y)
    calls = _count_loop_pairs(monkeypatch)
    for f in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y.adjoint()):
        got = f(hx, hy)
        assert not got._keyed
        _assert_close_terms(got, _loop_route(f, x, y))
    assert calls  # the product took the pair loop


def test_graph_carrier_basis_keys_unchanged(rng):
    from ncdiff import cohomology as C

    g = star_tree(5)
    carrier = C.GraphCarrierBasis(g, 2)
    assert carrier.keys == common_range_pairs(g, 2)
    x = GraphElement(g, {t: complex(*rng.standard_normal(2)) for t in carrier.keys[::3]})
    assert carrier.entries(_held(x)) == carrier.entries(x)
    basis = DifferentialBasis([vertex_projection(g, v) for v in g.vertices], mode="selfadjoint")
    report = C.deRham_dims(basis, carrier)
    # the frozen deRham_dims star5 reference of the benchmark
    assert [(r.dim_ker, r.h_dim, r.rank_prev) for r in report.degrees] == [
        (9, 9, 0), (65, 45, 20), (170, 90, 80), (210, 90, 120), (125, 45, 80), (29, 9, 20)]


def test_terms_decoded_from_codes_are_paths(rng, monkeypatch):
    a, _ = _held_pair("loop4", rng, 60)
    x = _held(a)
    decoded = []
    decode = GraphElement._decode
    monkeypatch.setattr(GraphElement, "_decode", lambda self: decoded.append(1) or decode(self))
    assert x.terms == a.terms and x.terms is x.terms and len(decoded) == 1  # once, then kept
    assert type(x) is GraphElement
    assert all(type(c) is complex for c in x.terms.values())
    for mu, nu in x.terms:
        assert type(mu) is Path and hash(mu) == hash(Path(mu.source, mu.edges, mu.range))
    K, coeffs = x._keyed
    assert K.flags.writeable is False and coeffs.flags.writeable is False
    assert K.dtype == np.int64 and K.flags.f_contiguous
    with pytest.raises(AttributeError):
        x.no_such_attribute


def test_held_elements_pickle(rng):
    a, b = _held_pair("loop4", rng, 40)
    x = a * b  # 1,600 pairs: the array route, held as codes only
    for y in (pickle.loads(pickle.dumps(x)), pickle.loads(pickle.dumps(_dict_only(x)))):
        g = y.graph
        assert type(y) is GraphElement and g is not x.graph and g.edges == x.graph.edges
        # elements compare over one graph: x's terms, over the unpickled one
        assert y.terms == x.terms and y.equal_within(GraphElement(g, x.terms), 0.0)
        if y._keyed:
            (K, c), (L, d) = y._keyed, x._keyed
            assert np.array_equal(K, L) and np.array_equal(c, d)
            assert not K.flags.writeable and not c.flags.writeable
        _assert_same_terms(y * y.adjoint(), GraphElement(g, (x * x.adjoint()).terms))
