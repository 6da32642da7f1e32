"""The carrier protocol shared by every element type the calculus runs on,
and the route contract of the term carriers (``carrier.HeldTerms``), stated
once over one list of carrier cases."""

import cmath
import inspect
import itertools
import math
import operator
import pickle

import numpy as np
import pytest

import ncdiff
from ncdiff import carrier, cohomology, dirichlet, graph_algebra as ga, matrix_algebra, qlattice
from ncdiff.carrier import EQ_TOLERANCE, PRUNE_EPSILON
from ncdiff.forms import DifferentialBasis
from ncdiff.graph_algebra import (DirectedGraph, GraphElement, Path, common_range_pairs,
                                  vertex_projection)
from ncdiff.matrix_algebra import MatElement
from ncdiff.qlattice import (QAlgebraSpec, QElement, SpecMismatchError, heisenberg_spec,
                             torus_spec, torus_spec_2n)
from ncdiff.testing import (loop_graph, random_form, random_graph_element, random_matelement,
                            random_qelement, star_tree)

from conftest import MU, NU, THETA, diamond_graph, o2_graph
from oracles import (assert_close_terms, assert_python_terms, assert_same_terms, box_for,
                     dict_only, graph_loop_product, graph_operand, held, loop_product,
                     q_element, route_cases, wide_operand)


# Each factory returns (a, b, foreign, error): two nonzero elements over one
# parent, one over another parent, and the error that mixing them raises.

def _q(rng):
    spec = torus_spec(THETA)
    other = torus_spec(THETA / 2)
    return (random_qelement(spec, rng), random_qelement(spec, rng),
            random_qelement(other, rng), SpecMismatchError)


def _graph(rng):
    g = star_tree(4)
    return (random_graph_element(g, rng), random_graph_element(g, rng),
            random_graph_element(star_tree(4), rng), ValueError)


def _mat(rng):
    return (random_matelement(3, rng), random_matelement(3, rng),
            random_matelement(2, rng), ValueError)


def _form(rng):
    spec = torus_spec(THETA)
    U = QElement.generator(spec, 1)
    basis = DifferentialBasis([U], label="{U}")
    other = DifferentialBasis([U], label="{U} again")

    def coeff(r):
        return random_qelement(spec, r)

    return (random_form(basis, coeff, rng), random_form(basis, coeff, rng),
            random_form(other, coeff, rng), ValueError)


CARRIERS = pytest.mark.parametrize("make", [_q, _graph, _mat, _form],
                                   ids=["qlattice", "graph", "matrix", "form"])
TERM_CARRIERS = pytest.mark.parametrize("make", [_q, _graph], ids=["qlattice", "graph"])


@CARRIERS
def test_linear_structure(make, rng):
    a, b, _, _ = make(rng)
    assert not a.is_zero() and not b.is_zero()
    assert (a + b - b).equal_within(a)
    assert not (a + b).equal_within(a)
    assert (-a).equal_within((-1) * a, tol=0.0)
    assert (-a).equal_within(a.scale(-1), tol=0.0)
    assert (2 * a).equal_within(a.scale(2), tol=0.0)


@CARRIERS
def test_default_tolerance(make, rng):
    a, _, _, _ = make(rng)
    below = a.scale(0.5 * EQ_TOLERANCE / a.norm())
    above = a.scale(2.0 * EQ_TOLERANCE / a.norm())
    assert below.is_zero() and not above.is_zero()
    assert (a + below).equal_within(a)
    assert not (a + above).equal_within(a)


@CARRIERS
def test_mixing_parents_raises(make, rng):
    a, _, foreign, error = make(rng)
    for op in (operator.add, operator.sub):
        with pytest.raises(error):
            op(a, foreign)
    with pytest.raises(error):
        a.equal_within(foreign)


@TERM_CARRIERS
def test_terms_prune_at_prune_epsilon(make, rng):
    a, _, _, _ = make(rng)
    key = next(iter(a.terms))
    unit = a._like({key: 1.0})
    assert unit.scale(PRUNE_EPSILON).terms == {}
    assert unit.scale(2 * PRUNE_EPSILON).terms == {key: 2 * PRUNE_EPSILON}
    assert (unit.scale(4 * PRUNE_EPSILON) + unit.scale(-3.5 * PRUNE_EPSILON)).terms == {}
    assert (a - a).terms == {} and (-a + a).terms == {}


@TERM_CARRIERS
def test_overflowing_moduli_raise_on_both_holdings(make, rng):
    # 1.5e308 (1 + i) is finite, but its modulus overflows: the loops raise
    # from abs, and the routes over held arrays must raise as they do
    a, _, _, _ = make(rng)
    key = next(iter(a.terms))
    big = 1.5e308 + 1.5e308j
    for c, factor in ((1.0, big), (1e308 + 1e308j, 1.5)):
        x = a._like({key: c})
        keys, coeffs = x._arrays()
        for y in (x, x._held(keys, coeffs)):
            with pytest.raises(OverflowError):
                y.scale(factor)
            assert y.norm() == abs(c)
            assert (y + y).norm() == abs(2 * c)  # inf parts: an inf modulus, no error
        with pytest.raises(OverflowError):
            x._like({key: big})
        with pytest.raises(OverflowError):
            x._held(keys, np.array([big]))


def test_mixing_q_and_graph_elements_is_a_type_error(rng):
    a = _q(rng)[0]
    with pytest.raises(TypeError):
        a + _graph(rng)[0]


def test_one_commutator():
    assert ncdiff.commutator is carrier.commutator
    assert not hasattr(qlattice, "commutator")
    assert not hasattr(matrix_algebra, "mat_commutator")


# -- the route contract of carrier.HeldTerms ----------------------------------
#
# The q-lattice and the graph share carrier.HeldTerms: elements held as a
# dict, as keyed arrays or both; sums by a merge of sorted term codes;
# negation, scaling, norms and decoding.  Each adds an array product and an
# array adjoint.  Every route is held to the loops, run on dict-only copies
# with the carrier's cuts lifted (Case.loop_route):
# - bit for bit: sums, differences, negation and scale on both carriers, and
#   the graph's adjoint;
# - within numpy's rounding, ROUNDING relative: the q-lattice adjoint, whose
#   phases numpy's complex product multiplies.  It and Python's product each
#   round within sqrt(5) u relative (u = 2**-53), so they differ by < 8 u;
# - norms within NORM_TOL relative: numpy's modulus may differ in the last bit;
# - array products within PRODUCT_TOL, absolute and relative; chains mixing
#   routes within 1e-13, relative above modulus 1.
# The carrier modules run the checks below on their cases under their own
# test names (contract_test); a new term carrier is one more Case.

LIFTED = 10 ** 9
ROUNDING = 2.0 ** -50
NORM_TOL = 1e-15
PRODUCT_TOL = 1e-13


class Case:
    """A term carrier over ``parent``: the ``module`` of its array product,
    whose ``cuts`` ``loop_route`` lifts, and its ``loop`` product.  What the
    class holds serves every case of the carrier; ``size`` bounds operands
    (an exponent box, a path length)."""

    def __init__(self, name, parent, size=None):
        self.name, self.parent, self.size = name, parent, size

    def __repr__(self):
        return self.name

    @classmethod
    def loop_route(cls, f, *xs):
        """f on dict-only copies of xs with every cut lifted: the loops, the oracle."""
        with pytest.MonkeyPatch.context() as mp:
            for cut in cls.cuts:
                mp.setattr(cls.module, cut, LIFTED)
            return f(*map(dict_only, xs))

    def pair(self, rng, n_terms):
        """Two operands of up to ``n_terms`` terms sharing many keys; on a
        quarter of the shared ones b is exactly -a, so a + b cancels there."""
        a, b = self._pair(rng, n_terms)
        shared = [k for k in a.terms if k in b.terms]
        return a, b._like({**b.terms, **{k: -a.terms[k] for k in shared[::4]}})

    @classmethod
    def with_nan(cls, a, imag=0.0):
        k = cls.nan_key(a)
        return a._like({**a.terms, k: complex(math.nan, imag)}), k


class QCase(Case):
    """A q-lattice presentation; operands on the box [-size, size]^m, or on
    the box ``box_for`` gives their size."""

    module, cuts, loop = qlattice, ("_ARRAY_TERMS", "_ARRAY_PAIRS"), staticmethod(loop_product)
    exact_adjoint, adjoint_cut = False, qlattice._ARRAY_TERMS  # dicts above it take arrays
    nan_key = staticmethod(lambda a: next(iter(a.terms)))
    adjoint_key = staticmethod(lambda k: tuple(-v for v in k))
    rebuilt = staticmethod(lambda y, x: y.spec is not x.spec and y.spec.same_as(x.spec))
    prune_keys = [(k, k % 3) for k in range(50)]

    def element(self, rng, n_terms):
        return q_element(self.parent, rng, self.size or box_for(self.parent, n_terms), n_terms)

    def _pair(self, rng, n_terms):
        return self.element(rng, n_terms), self.element(rng, n_terms)

    def derivation(self, c):
        return None

    def over(self, prune_epsilon, monkeypatch):
        spec = QAlgebraSpec(self.parent.theta, prune_epsilon=prune_epsilon)
        return lambda terms: QElement(spec, terms)

    @staticmethod
    def cancelling(make, rng, pruned):
        # (1 + U + ... + U^299)(V - U V) = V - U^300 V: every inner term cancels exactly
        a = make({(k, 0): 1.0 for k in range(300)})
        b = make({(0, 1): 1.0, (1, 1): -1.0})
        return [(a, b, {(0, 1), (300, 1)} if pruned else {(k, 1) for k in range(301)})]

    def uncodable(self, rng):
        # exponents from 2**62 and from 2**63, each with a small element
        small = QElement(self.parent, {(k, 1): 1.0 for k in range(40)})
        yield QElement(self.parent, {(2 ** 62 + k, 1): 1.0 + k for k in range(40)}), small
        yield QElement(self.parent, {(2 ** 63 + k, -1): 1j * k for k in range(1, 41)}), small

    def chain_operands(self, rng):
        K = box_for(self.parent, 60)
        x, y, z, w = (q_element(self.parent, rng, K, n) for n in (40, 60, 5, 3))
        return x, held(y), z, held(w)

    def heat_basis(self):
        return DifferentialBasis([QElement.generator(self.parent, 1).scale(0.8 + 0.3j)])


class GraphCase(Case):
    """A graph; ``pair`` takes paths of length at most ``size`` and
    ``element`` every vertex term first, then paths of length at most 4."""

    module, cuts, loop = ga, ("_ARRAY_PAIRS",), staticmethod(graph_loop_product)
    exact_adjoint, adjoint_cut = True, None  # only elements held as codes take arrays
    nan_key = staticmethod(lambda a: next(t for t in a.terms if t[0].source != t[1].source))
    adjoint_key = staticmethod(lambda k: k[::-1])
    rebuilt = staticmethod(lambda y, x: y.graph is not x.graph and (
        y.graph.vertices, y.graph.edges) == (x.graph.vertices, x.graph.edges))

    def element(self, rng, n_terms):
        return graph_operand(self.parent, rng, n_terms)

    def _pair(self, rng, n_terms):
        pairs = common_range_pairs(self.parent, self.size)
        n = min(n_terms, len(pairs))
        return tuple(GraphElement(self.parent, {pairs[i]: complex(*rng.standard_normal(2))
                                                for i in rng.choice(len(pairs), n, replace=False)})
                     for _ in range(2))

    def derivation(self, c):
        """ad of c times the projection on the first vertex."""
        p = self.parent.vertex_path(self.parent.vertices[0])
        return GraphElement.term(self.parent, p, p, c).ad()

    def over(self, prune_epsilon, monkeypatch):
        monkeypatch.setattr(ga, "PRUNE_EPSILON", prune_epsilon)
        return lambda terms: GraphElement(self.parent, terms)

    def cancelling(self, make, rng, pruned):
        # on O_2, (sum_k s_a^k)(sum_w c_w (s_w - s_aw)) = sum_w c_w (s_w - s_{a^10 w})
        # over the 15 words w in a, b that start with b: every inner term
        # cancels exactly; and the adjoint product
        g = self.parent
        o = g.vertex_path("o")
        words = [("b",) + tail for n in range(4) for tail in itertools.product("ab", repeat=n)]
        x = make({(g.path(["a"] * k) if k else o, o): 1.0 for k in range(10)})
        y = make({})
        for w in words:
            c = complex(*rng.standard_normal(2))
            y = y + make({(g.path(w), o): c, (g.path(("a",) + w), o): -c})
        want = {g.path(["a"] * k + list(w)) for k in ((0, 10) if pruned else range(11))
                for w in words}
        return [(x, y, {(p, o) for p in want}), (y.adjoint(), x.adjoint(), {(o, p) for p in want})]

    @property
    def prune_keys(self):
        return common_range_pairs(self.parent, 7)[:50]

    def uncodable(self, rng):
        # a path foreign to the graph, and a path of 11 edges in base 64,
        # whose digits reach 2**62; each with an element that can be coded
        g = self.parent
        x = graph_operand(g, rng, 60)
        foreign = Path("c0", ("zz",), "c1")
        yield GraphElement(g, {**x.terms, (foreign, foreign): 2.0}), x
        g64 = DirectedGraph(["o"], {f"e{i}": ("o", "o") for i in range(64)})
        y = wide_operand(g64, rng, 60, 2)
        long = (g64.path(["e63"] * 11), g64.vertex_path("o"))
        yield GraphElement(g64, {**y.terms, long: 1.0}), y

    def chain_operands(self, rng):
        (x, y), (z, w) = self.pair(rng, 40), self.pair(rng, 5)
        return x, held(y), z, held(w)

    def heat_basis(self):
        g = self.parent
        return DifferentialBasis([vertex_projection(g, v) for v in g.vertices], mode="selfadjoint")


Q_CASES = [QCase("torus", torus_spec(THETA)), QCase("heisenberg", heisenberg_spec(MU, NU)),
           QCase("torus2n", torus_spec_2n([0.3, 1.1]))]
GRAPH_CASES = [GraphCase("loop4", loop_graph(4), 7), GraphCase("O2", o2_graph(), 4),
               GraphCase("diamond", diamond_graph(), 2)]
ROUTE_CASES = Q_CASES + GRAPH_CASES
TORUS, HEISENBERG, _ = Q_CASES
LOOP4, O2, _ = GRAPH_CASES


def contract_test(check, cases, **params):
    """``check`` as a test over ``cases`` (ids by name), or on the one case
    given, then over each of ``params``; its other arguments are fixtures."""
    sig = inspect.signature(check)
    bound = [cases] if isinstance(cases, Case) else []
    if not bound:
        params = {"case": cases, **params}

    def test(**kwargs):
        check(*bound, **kwargs)
    test.__signature__ = sig.replace(parameters=list(sig.parameters.values())[len(bound):])
    for name, values in params.items():
        test = pytest.mark.parametrize(name, values, ids=str)(test)
    return test


def _refuse(mp, module, name):
    def refuse(*args):
        raise AssertionError(f"{name} entered")
    mp.setattr(module, name, refuse)


def array_product_matches_loop(case, a, b):
    got = case.module._array_product(a, b)
    assert_close_terms(got, case.loop(a, b), PRODUCT_TOL, low=0.0, high=1.0)
    return got


def products_match_the_loop(case, sizes, rng):
    """Both orders of operands of each size pair; above the pair cut, and
    some size pair is, ``*`` takes the array route."""
    above = False
    for p, r in sizes:
        x, y = case.element(rng, p), case.element(rng, r)
        for a, b in ((x, y), (y, x)):
            got = array_product_matches_loop(case, a, b)
            if len(a.terms) * len(b.terms) > case.module._ARRAY_PAIRS:
                above = True
                with pytest.MonkeyPatch.context() as mp:
                    _refuse(mp, case.module, "_pair_product")
                    assert (a * b).terms == got.terms
    assert above


def product_prunes_exact_cancellations(case, prune_epsilon, rng, monkeypatch):
    make = case.over(prune_epsilon, monkeypatch)
    for a, b, keys in case.cancelling(make, rng, prune_epsilon >= 0):
        assert set(array_product_matches_loop(case, a, b).terms) == keys


def product_keeps_nan(case, a, b):
    a, k = case.with_nan(a)
    got, want = case.module._array_product(a, b), case.loop(a, b)
    assert set(got.terms) == set(want.terms)
    nan_keys = {t for t, c in want.terms.items() if cmath.isnan(c)}
    # wherever the nan's term meets a term of b
    assert nan_keys and nan_keys == set(case.loop(a._like({k: 1.0}), b).terms)
    assert nan_keys == {t for t, c in got.terms.items() if cmath.isnan(c)}
    assert math.isnan((a * b).norm())


def product_of_empty_operand(case, a):
    zero = a._like({})
    assert case.module._array_product(a, zero).terms == {}
    assert case.module._array_product(zero, a).terms == {}
    assert (zero * a).terms == {} and (a * zero).terms == {}


def small_products_stay_on_the_loop(case, monkeypatch, x, y, keys, a, b, c):
    """x y has the keys ``keys``; a b has 256 term pairs, at the cut; a c more."""
    _refuse(monkeypatch, case.module, "_array_product")
    assert set((x * y).terms) == keys
    a * b
    with pytest.raises(AssertionError, match="_array_product entered"):
        a * c


def _sums_match(case, a, b):
    """a + b, a - b and b - a over a and b held either way, bit for bit as
    the loop; two operands held as arrays take the merge.  Returns a + b."""
    ops = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: y - x]
    want = [case.loop_route(f, a, b) for f in ops]
    for x, y in route_cases(a, b):
        for f, w in zip(ops, want):
            out = f(x, y)
            assert bool(out._keyed) == bool(x._keyed and y._keyed)
            assert_same_terms(out, w)
    return want[0]


def sums_match_the_loop(case, n_terms, rng):
    a, b = case.pair(rng, n_terms)
    total = _sums_match(case, a, b)
    if set(a.terms) & set(b.terms):
        assert len(total.terms) < len(set(a.terms) | set(b.terms))  # some cancel


def assert_adjoint(case, got, want):
    if case.exact_adjoint:
        assert_same_terms(got, want)
    else:
        assert_close_terms(got, want, ROUNDING, low=0.0)


def unary_routes_match_the_loop(case, n_terms, rng):
    a, _ = case.pair(rng, n_terms)
    ops = [lambda x: -x] + [lambda x, c=c: x.scale(c) for c in (0.3 - 1.7j, 2, -1e-13)]
    want = [case.loop_route(f, a) for f in ops]
    adj, norm = case.loop_route(lambda x: x.adjoint(), a), case.loop_route(lambda x: x.norm(), a)
    for x in (held(a), dict_only(a)):
        for f, w in zip(ops, want):
            assert_same_terms(f(x), w)
        got = x.adjoint()
        cut = case.adjoint_cut
        assert bool(got._keyed) == bool(x._keyed or cut is not None and len(a.terms) > cut)
        assert_adjoint(case, got, adj)
        assert_adjoint(case, got.adjoint(), a)
        assert abs(x.norm() - norm) <= NORM_TOL * norm
    assert len(want[-1].terms) < len(a.terms)  # the small scale prunes some terms


def held_products_match_the_loop(case, rng):
    a, b = case.pair(rng, 40)
    want = case.loop(a, b)
    for x, y in route_cases(a, b):
        got = x * y
        assert got._keyed  # the array route ran and returned arrays
        assert_close_terms(got, want, PRODUCT_TOL, low=0.0, high=1.0)


def mixed_chains_match_the_loop(case, rng):
    x, y, z, w = case.chain_operands(rng)
    d = case.derivation(1.5j)

    def chain(x, y, z, w):
        xy = x * y
        head = (xy * z - y.adjoint() * x.scale(0.5j) + (w * z) * (x + y)).adjoint()
        if d is None:
            return head - (z * w) * xy + w * w
        return d(head) - (z * w) * xy + w * w - d(y)
    assert_close_terms(chain(x, y, z, w), case.loop_route(chain, x, y, z, w))


def routes_prune_as_the_loop(case, prune_epsilon, monkeypatch):
    make = case.over(prune_epsilon, monkeypatch)
    a = make({t: complex(k + 1, -k) for k, t in enumerate(case.prune_keys)})
    b = make({t: complex(-k - 1, k + (k % 2) * 1e-13) for k, t in enumerate(case.prune_keys)})
    d = case.derivation(1.0)
    for f in [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x.scale(0),
              lambda x, y: y.scale(1e-12)] + ([lambda x, y: d(x + y)] if d else []):
        want = case.loop_route(f, a, b)
        for x, y in route_cases(a, b):
            assert_same_terms(f(x, y), want)
    want = case.loop_route(lambda x, y: (x + y).adjoint(), a, b)
    for x, y in route_cases(a, b):
        assert_adjoint(case, (x + y).adjoint(), want)
    kept = len((held(a) + held(b)).terms)
    assert kept == {PRUNE_EPSILON: 0, 0.0: 25, -1.0: 50}[prune_epsilon]


def routes_keep_nan(case, a, b):
    """Returns a, with its nan, and the nan's key."""
    a, k = case.with_nan(a, 1.0)
    for x in (held(a), dict_only(a)):
        assert math.isnan(x.norm()) and math.isnan((x * held(b)).norm())
        assert cmath.isnan((x + held(b)).terms[k])
        assert cmath.isnan(x.adjoint().terms[case.adjoint_key(k)])
        assert cmath.isnan(x.scale(2j).terms[k]) and cmath.isnan((-x).terms[k])
    assert_same_terms(held(a) - held(b), case.loop_route(lambda x, y: x - y, a, b))
    return a, k


def routes_on_empty_operands(case, a):
    a = held(a)
    zero = a._like({})
    held_zero = held(zero)
    for z in (zero, held_zero):
        assert_same_terms(a + z, a)
        assert_same_terms(z + a, a)
        assert_same_terms(z - a, -a)
        assert (a - a).terms == {}
        assert (z * a).terms == {} and (a * z).terms == {}
    assert (held_zero + held_zero).terms == {} and held_zero.adjoint().terms == {}
    assert held_zero.norm() == 0.0 and (-held_zero).norm() == 0.0
    assert held_zero.scale(3).terms == {}
    d = case.derivation(1.0)
    assert d is None or d(held_zero).terms == {}


def uncodable_stay_dicts(case, rng):
    """Elements that cannot be coded take the loops, whatever the other
    operand holds; what the loop cannot code comes back as a dict."""
    for x, small in case.uncodable(rng):
        assert x._arrays() is None and x._keyed is False
        s = held(small)
        for f in (lambda x: x + s, lambda x: s - x, lambda x: -x, lambda x: x.scale(2),
                  lambda x: x.adjoint(), lambda x: x * s, lambda x: s * x):
            got, want = f(x), case.loop_route(f, x)
            assert not got._keyed and (got._arrays() is None) == (want._arrays() is None)
            assert_close_terms(got, want)
        assert x.norm() == case.loop_route(lambda x: x.norm(), x)


def terms_decode_once(case, a, monkeypatch):
    """Held as arrays, a decodes its terms once, as Python scalars, and
    holds read-only int64 key rows in column-major order; returns it held."""
    x = held(a)
    decoded = []
    decode = type(x)._decode
    monkeypatch.setattr(type(x), "_decode", lambda self: decoded.append(1) or decode(self))
    assert x.terms == a.terms and x.terms is x.terms and len(decoded) == 1  # once, then kept
    assert type(x) is type(a) and x._arrays() is x._keyed
    assert_python_terms(x)
    K, coeffs = x._keyed
    assert K.flags.writeable is False and coeffs.flags.writeable is False
    assert K.dtype == np.int64 and K.flags.f_contiguous
    with pytest.raises(AttributeError):
        x.no_such_attribute
    return x


def held_elements_pickle(case, a, b):
    x = a * b  # above the cut: the array route, held as arrays only
    assert x._terms is None
    for y in (pickle.loads(pickle.dumps(x)), pickle.loads(pickle.dumps(dict_only(x)))):
        assert type(y) is type(x) and case.rebuilt(y, x)  # over an equal new parent
        # elements compare over one parent: x's terms, over the unpickled one
        assert y.terms == x.terms and y.equal_within(y._like(x.terms), 0.0)
        (K, c), (L, d) = y._arrays(), x._keyed
        assert np.array_equal(K, L) and np.array_equal(c, d)
        assert not K.flags.writeable and not c.flags.writeable
        assert_same_terms(y * y._like(b.terms), x * b)
        assert_same_terms(y.adjoint() * y._like(b.terms), x.adjoint() * b)


def small_sums_mix_arrays_and_dicts(case, a, b):
    """Small operands, held as arrays or as dicts, in either order."""
    _sums_match(case, a, b)
    with pytest.raises(TypeError):
        held(a) + MatElement(np.eye(2))
    assert held(a).__add__(1.5) is NotImplemented


@pytest.mark.parametrize("case", ROUTE_CASES, ids=str)
def test_from_keys_and_heat_give_python_scalars(case, rng):
    # _from_keys takes coefficients as lists (the graph's vertex actions) or
    # as arrays (the q-lattice's actions, the heat flow)
    a, _ = case.pair(rng, 40)
    keys, coeffs = a.keyed()
    for cs in (coeffs, np.asarray(coeffs), list(coeffs)):
        x = a._from_keys(keys, cs)
        assert_python_terms(x)
        assert x.terms == a.terms
    for x in (held(a), dict_only(a)):
        assert_python_terms(dirichlet.heat_semigroup(x, 0.3, case.heat_basis()))


# -- key sets: carrier coordinates over a finite set of keys -------------------
# Each factory returns a key set of its carrier's module and keys outside it.

def _matrix_keys():
    return matrix_algebra.MatrixCarrierBasis(3), np.array([9, -1])


def _q_keys():
    return qlattice.QMonomialBasis(torus_spec(THETA), 2), np.array([[3, 0], [0, -3]])


def _graph_keys():
    g = loop_graph(2)
    keyset = ga.GraphCarrierBasis(g, 1)
    return keyset, [k for k in common_range_pairs(g, 2) if k not in keyset.keys]


KEY_SETS = pytest.mark.parametrize("make", [_matrix_keys, _q_keys, _graph_keys],
                                   ids=["matrix", "qlattice", "graph"])


@KEY_SETS
def test_key_set_coordinates_are_unit_vectors(make):
    keyset, _ = make()
    eye = np.eye(keyset.dim)
    for i, x in enumerate(keyset.elements()):
        assert np.array_equal(keyset.coords(x), eye[i])


@KEY_SETS
def test_key_set_rows_mark_a_key_outside(make):
    keyset, outside = make()
    assert len(outside) and keyset._rows(outside).tolist() == [-1] * len(outside)
    assert keyset._rows(keyset.keys).tolist() == list(range(keyset.dim))


def test_key_sets_keep_their_import_paths():
    for name, module in (("MatrixCarrierBasis", matrix_algebra), ("QMonomialBasis", qlattice),
                         ("GraphCarrierBasis", ga)):
        assert getattr(cohomology, name) is getattr(ncdiff, name) is getattr(module, name)
    assert cohomology.TruncationError is carrier.TruncationError


def test_key_sets_check_their_size():
    spec = torus_spec(THETA)
    basis = DifferentialBasis([QElement.generator(spec, 1)])
    calls = [(lambda: ga.GraphCarrierBasis(star_tree(3), -1), "max_len", "-1"),
             (lambda: ga.GraphCarrierBasis(star_tree(3), 1.0), "max_len", "1.0"),
             (lambda: qlattice.QMonomialBasis(spec, -1), "truncation K", "-1"),
             (lambda: qlattice.QMonomialBasis(spec, 2.0), "truncation K", "2.0"),
             (lambda: matrix_algebra.MatrixCarrierBasis(-2), "n", "-2"),
             (lambda: matrix_algebra.MatrixCarrierBasis(2.0), "n", "2.0"),
             (lambda: matrix_algebra.MatrixCarrierBasis(True), "n", "True"),
             (lambda: qlattice.QMonomialBasis(spec, False), "truncation K", "False")]
    calls.append((lambda: cohomology.deRham_dims_truncated(basis, spec, 4.0),
                  "truncation K", "4.0"))
    for call, name, value in calls:
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer, "
                                             f"got {value}$"):
            call()
    # an integer of another type is a size
    assert qlattice.QMonomialBasis(spec, np.int64(1)).dim == 9
    assert ga.GraphCarrierBasis(star_tree(3), 0).description == "graph terms |mu|,|nu|<=0"
