"""The derivative's family hooks and raw accumulators against the per-bracket oracle.

``forms._derive`` (behind ``delta``, ``partial`` and ``partial_star``) calls
one bracket hook per form coefficient and covector family (the carrier's
``family_ad``), sums each signed bracket [x_j, a] into one raw accumulator per
output key, in its carrier's own terms, and builds each output coefficient
once.  ``oracles.derive_per_bracket`` builds every bracket as an element,
negates it as an element and sums elements pairwise.  Both must give the
same keys in the same order and the same coefficients, bit for bit, on every
carrier, on the routes the hooks take (dict-held q-lattice operands of up to
32 terms, diagonal matrix families of any size, vertex projections on all or
some vertices) and on the element fallback (operands held as arrays or of
more terms, rotated matrices, non-monomial and non-vertex slots), also mixed
within one form; and raise what it raises.
"""

import cmath
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from ncdiff import graph_algebra as ga
from ncdiff import testing
from ncdiff.forms import DifferentialBasis, DifferentialForm, delta, partial, partial_star
from ncdiff.graph_algebra import GraphElement
from ncdiff.matrix_algebra import MatElement, projection_basis
from ncdiff.qlattice import (QElement, SpecMismatchError, heisenberg_spec, torus_spec,
                             torus_spec_2n)
from ncdiff.testing import loop_graph, random_form, random_matelement, star_tree

from conftest import MU, NU, THETA
from oracles import derive_per_bracket, matrix_family_ad

# q-lattice coefficient sizes: the hook takes dicts of up to 32 terms
SIZES = (3, 20, 32, 33)
# diagonals of two self-adjoint families whose slot 0 weighs d(a) - d(b) as
# nan: 1e308 - (-1e308) overflows
OVERFLOWING = ([[1e308, -1e308, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]],
               [[1e308, -1e308, 0.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0, 0.0],
                [3.0, 1.0, 0.0, 2.0, 1.0]])


def _diagonal_basis(diagonals):
    return DifferentialBasis([MatElement(np.diag(d)) for d in diagonals], mode="selfadjoint")


def _held(x):
    """A copy of x held as arrays only; x itself keeps no arrays."""
    y = type(x)(x.spec, x.terms)
    return y._from_keys(*y.keyed())


def _q_element(spec, rng, n_terms):
    """An element held as a dict, of ``n_terms`` distinct exponents in [-3, 3]."""
    grid = list(itertools.product(range(-3, 4), repeat=spec.generator_count))
    picks = rng.choice(len(grid), size=n_terms, replace=False)
    return QElement(spec, {grid[i]: complex(*rng.standard_normal(2)) for i in picks})


def _q_sampler(spec):
    """Elements of a size from SIZES, held as dicts or, half of the time, as arrays."""
    def sample(rng):
        x = _q_element(spec, rng, int(rng.choice(SIZES)))
        return _held(x) if rng.random() < 0.5 else x
    return sample


def _graph_sampler(graph, rng, n_terms=3):
    draw = testing.graph_sampler(graph, rng, n_terms=n_terms)
    return lambda _: draw()


def _rotated_unitaries(n, rng):
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return [MatElement(q @ np.diag(np.exp(1j * rng.uniform(0, 6.3, n))) @ q.conj().T)
            for _ in range(2)]


def _cases():
    """(label, basis, sampler) for every carrier and route."""
    rng = np.random.default_rng(7)
    torus, heis = torus_spec(THETA), heisenberg_spec(MU, NU)
    t2n = torus_spec_2n([0.3, 1.1])
    (U, _), (hU, hV, hW) = ([QElement.generator(s, j + 1) for j in range(s.generator_count)]
                            for s in (torus, heis))
    U1, U3 = QElement.generator(t2n, 1), QElement.generator(t2n, 3)
    unitaries = [MatElement(np.diag(np.exp(1j * rng.uniform(0, 6.3, 4)))) for _ in range(2)]
    tree, loop = star_tree(5), loop_graph(3)

    def mat(n):
        return lambda r: random_matelement(n, r)
    mat4 = mat(4)
    p = {v: ga.vertex_projection(tree, v) for v in tree.vertices}
    with warnings.catch_warnings():  # a vertex projection is self-adjoint
        warnings.simplefilter("ignore")
        complex_tree = DifferentialBasis(list(p.values()),
                                         prefactors=[1j, 2 - 0.5j, -1.5, 0.25j, 3 + 1j])
    clocks = [MatElement(np.diag(np.exp(1j * rng.uniform(0, 6.3, 5)))) for _ in range(3)]
    return [
        ("M_4 projections", DifferentialBasis(projection_basis(4), mode="selfadjoint"), mat4),
        ("M_4 diagonal unitaries", DifferentialBasis(unitaries, prefactors=[1.5, 0.5 - 1j]), mat4),
        ("rotated M_4 unitaries", DifferentialBasis(_rotated_unitaries(4, rng)), mat4),
        ("torus {U}", DifferentialBasis([U]), _q_sampler(torus)),
        ("torus {U, U - U^-1}", DifferentialBasis([U, U - U.adjoint()], prefactors=[0.7, 2j]),
         _q_sampler(torus)),
        ("heisenberg {W}", DifferentialBasis([hW], prefactors=[-1.5 + 0.25j]), _q_sampler(heis)),
        ("heisenberg {U, V}", DifferentialBasis([hU, hV]), _q_sampler(heis)),
        ("torus2n {U1, U3}", DifferentialBasis([U1, U3], prefactors=[1j, 0.3]), _q_sampler(t2n)),
        ("star tree", DifferentialBasis([ga.vertex_projection(tree, v) for v in tree.vertices],
                                        mode="selfadjoint"), _graph_sampler(tree, rng)),
        ("3-cycle", DifferentialBasis([ga.vertex_projection(loop, v) for v in loop.vertices],
                                      prefactors=[1.0, 2 - 1j, 0.5j], mode="selfadjoint"),
         _graph_sampler(loop, rng, n_terms=5)),
        ("star tree, complex prefactors",
         DifferentialBasis(list(p.values()), prefactors=[1j, 2 - 0.5j, -1.5, 0.25j, 3 + 1j],
                           mode="selfadjoint"), _graph_sampler(tree, rng, n_terms=6)),
        ("star tree, both families", complex_tree, _graph_sampler(tree, rng, n_terms=6)),
        ("star tree, three vertices",
         DifferentialBasis([p["v3"], p["root"], p["v1"]], prefactors=[0.5, -1j, 2.0],
                           mode="selfadjoint"), _graph_sampler(tree, rng, n_terms=6)),
        ("star tree, a non-vertex slot",
         DifferentialBasis([p["root"], p["v1"] + p["v2"].scale(2.0), p["v3"]],
                           mode="selfadjoint"), _graph_sampler(tree, rng, n_terms=6)),
        ("M_1", DifferentialBasis([MatElement([[2.0]])], mode="selfadjoint"), mat(1)),
        ("M_5 diagonal unitaries",
         DifferentialBasis(clocks, prefactors=[0.5j, 1.0, -2 + 1j]), mat(5)),
        ("M_7 projections", DifferentialBasis(projection_basis(7), mode="selfadjoint"), mat(7)),
    ]


CASES = {label: (basis, sample) for label, basis, sample in _cases()}


def _covector_keys(basis):
    slots = range(basis.size)
    subsets = [c for p in range(basis.size + 1) for c in itertools.combinations(slots, p)]
    return [(I, J) for I in subsets for J in (subsets if basis.mode == "complex" else [()])]


def _forms(basis, sample, rng):
    """0-forms, random forms, and forms on every covector key, so that several
    brackets land on most output keys."""
    out = [DifferentialForm.from_element(basis, sample(rng)) for _ in range(3)]
    out += [random_form(basis, lambda r: sample(r), rng, max_terms=4) for _ in range(3)]
    out += [DifferentialForm(basis, {k: sample(rng) for k in _covector_keys(basis)})
            for _ in range(2)]
    return out


def _same_coefficient(got, want):
    if isinstance(want, MatElement):
        return np.array_equal(got.mat, want.mat)
    return list(got.terms) == list(want.terms) and all(
        x == y or (cmath.isnan(x) and cmath.isnan(y))
        for x, y in zip(got.terms.values(), want.terms.values()))


def assert_same_form(got, want):
    """Equal keys in equal order, and coefficients equal bit for bit (a nan
    where the oracle has one)."""
    assert list(got.terms) == list(want.terms)
    bad = [k for k, w in want.terms.items() if not _same_coefficient(got.terms[k], w)]
    assert bad == []


def _derivatives(basis):
    if basis.mode == "selfadjoint":
        return [(delta, (False,))]
    return [(delta, (False, True)), (partial, (False,)), (partial_star, (True,))]


@pytest.mark.parametrize("label", list(CASES))
def test_derive_matches_the_per_bracket_oracle(label):
    basis, sample = CASES[label]
    rng = np.random.default_rng(list(CASES).index(label))
    for alpha in _forms(basis, sample, rng):
        for derive, families in _derivatives(basis):
            want = derive_per_bracket(alpha, families)
            assert_same_form(derive(alpha), want)
            # the second derivative sums brackets of brackets, most of them cancelling
            assert_same_form(derive(want), derive_per_bracket(want, families))


def test_derive_takes_dict_and_array_operands_in_one_form():
    basis, _ = CASES["torus {U, U - U^-1}"]
    torus = basis.elements[0].spec
    rng = np.random.default_rng(3)
    for n_terms in SIZES:
        small = _q_element(torus, rng, n_terms)
        parts = [small, _held(_q_element(torus, rng, n_terms)), _q_element(torus, rng, 40)]
        alpha = DifferentialForm(basis, dict(zip(_covector_keys(basis), itertools.cycle(parts))))
        for derive, families in _derivatives(basis):
            assert_same_form(derive(alpha), derive_per_bracket(alpha, families))
        # the hook reads dict-held operands without building their arrays
        assert not small._keyed or n_terms > 32


def test_brackets_that_cancel_within_eps_are_dropped_as_the_elements_drop_them():
    # three brackets land on U^3 V at dU_1 dU_2 dU_3; the first two cancel to
    # about 1e-14, below the prune threshold, and the third is added afresh
    torus = torus_spec(THETA)
    U = QElement.generator(torus, 1)
    basis = DifferentialBasis([U, U * U, U * U * U])
    keys = [((0, 1), ()), ((0, 2), ()), ((1, 2), ())]
    V = [QElement.monomial(torus, (e, 1)) for e in (0, 1, 2)]
    units = [derive_per_bracket(DifferentialForm(basis, {k: v}), (False,))
             for k, v in zip(keys, V)]
    w = [f.terms[((0, 1, 2), ())].terms[(3, 1)] for f in units]
    for third, tiny in [(1.0, 1e-14), (0.0, 1e-14), (1.0, 0.0), (0.5, -3e-13)]:
        coeffs = [1.0, -w[0] / w[1] * (1 + tiny), third]
        alpha = DifferentialForm(basis, {k: v.scale(c) for k, v, c in zip(keys, V, coeffs)})
        got = delta(alpha)
        assert_same_form(got, derive_per_bracket(alpha, basis.families))
        # what is left on dU_1 dU_2 dU_3 is the third bracket alone
        lone = delta(DifferentialForm(basis, {keys[2]: V[2].scale(third)}))
        top = ((0, 1, 2), ())
        assert (top in got.terms) == (top in lone.terms) == bool(third)
        if third:
            assert got.terms[top].terms == lone.terms[top].terms


def test_a_nan_coefficient_passes_through_both_routes():
    basis, _ = CASES["heisenberg {U, V}"]
    heis = basis.elements[0].spec
    a = QElement(heis, {(0, 0, 1): complex("nan"), (1, 2, 0): 0.5j, (2, 0, 1): 1.0})
    alpha = DifferentialForm(basis, {((0,), ()): a, ((), (1,)): a, ((), ()): a})
    for derive, families in _derivatives(basis):
        got = derive(alpha)
        assert_same_form(got, derive_per_bracket(alpha, families))
        assert any(cmath.isnan(c) for x in got.terms.values() for c in x.terms.values())


def _raised(f):
    try:
        f()
    except Exception as err:  # whatever either route raises, compared below
        return type(err), str(err)
    return None


def test_an_overflowing_matrix_weight_raises_as_the_elements_raise():
    basis = _diagonal_basis(OVERFLOWING[0])
    # small entries: only the weight overflows, not its product with them
    a = random_matelement(4, np.random.default_rng(1)).scale(1e-3)
    for alpha in (DifferentialForm.from_element(basis, a),
                  DifferentialForm(basis, {((0,), ()): a, ((1,), ()): a})):
        want = _raised(lambda: derive_per_bracket(alpha, (False,)))
        assert want == (ValueError, "matrix entries must be finite")
        assert _raised(lambda: delta(alpha)) == want


def test_a_family_whose_weights_overflow_to_nan_derives_as_the_elements_do():
    # a bracket with slot 0 fails the finiteness check, and forms on which
    # slot 0 never lands (every covector holds dU_1) derive bit for bit
    basis = _diagonal_basis(OVERFLOWING[1])
    rng = np.random.default_rng(6)
    for alpha in _forms(basis, lambda r: random_matelement(5, r).scale(1e-3), rng):
        want = _raised(lambda: derive_per_bracket(alpha, (False,)))
        assert want == (ValueError, "matrix entries must be finite")
        assert _raised(lambda: delta(alpha)) == want
        alpha = DifferentialForm(basis, {k: a for k, a in alpha.terms.items() if 0 in k[0]})
        if alpha.terms:
            assert_same_form(delta(alpha), derive_per_bracket(alpha, (False,)))
            assert delta(alpha).terms


def test_a_foreign_operand_raises_as_the_elements_raise():
    other_graph = star_tree(5)
    cases = [
        ("torus {U}", QElement.generator(torus_spec(0.3), 2), SpecMismatchError),
        ("torus {U}", random_matelement(4, np.random.default_rng(2)), TypeError),
        ("heisenberg {W}", QElement.generator(torus_spec(THETA), 1), SpecMismatchError),
        ("M_4 projections", random_matelement(3, np.random.default_rng(2)), ValueError),
        ("M_5 diagonal unitaries", random_matelement(4, np.random.default_rng(2)), ValueError),
        ("M_5 diagonal unitaries", QElement.generator(torus_spec(THETA), 1), TypeError),
        ("M_1", ga.vertex_projection(other_graph, "root"), TypeError),
        ("star tree", ga.vertex_projection(other_graph, other_graph.vertices[1]), ValueError),
        ("star tree, both families", random_matelement(4, np.random.default_rng(2)), TypeError),
        ("star tree, a non-vertex slot", ga.unit(other_graph), ValueError),
        ("3-cycle", QElement.generator(torus_spec(THETA), 1), TypeError),
    ]
    for label, foreign, kind in cases:
        basis, sample = CASES[label]
        rng = np.random.default_rng(4)
        # a foreign coefficient alone, or after one of the basis's carrier
        for terms in ({((), ()): foreign}, {((0,), ()): sample(rng), ((), ()): foreign}):
            alpha = DifferentialForm(basis, terms)
            for derive, families in _derivatives(basis):
                want = _raised(lambda: derive_per_bracket(alpha, families))
                assert want is not None and want[0] is kind, label
                assert _raised(lambda: derive(alpha)) == want, label
        # where no covector lands, neither route brackets, and neither raises
        top = tuple(range(basis.size))
        alpha = DifferentialForm(basis, {(top, top if basis.mode == "complex" else ()): foreign})
        for derive, families in _derivatives(basis):
            assert derive(alpha).terms == derive_per_bracket(alpha, families).terms == {}


def test_each_family_has_a_hook_but_the_rotated_one():
    for label, (basis, sample) in CASES.items():
        hooks = basis.family_hooks
        assert all((hook is None) == (label == "rotated M_4 unitaries") for hook in hooks)
        assert basis.family_hooks is hooks  # built once
    # the hook hands the non-vertex slot to the fallback, and takes the others
    basis, sample = CASES["star tree, a non-vertex slot"]
    parts = basis.family_hooks[0](sample(np.random.default_rng(0)))
    assert [part is None for part in parts] == [False, True, False]


def test_the_matrix_hook_gives_the_raw_parts_of_its_oracle_bit_for_bit():
    # every diagonal matrix family of CASES, and the two whose weights overflow
    cases = [(basis, sample) for basis, sample in CASES.values()
             if isinstance(basis.elements[0], MatElement) and basis.eigenbasis[0] is None]
    cases += [(_diagonal_basis(D), lambda r, n=len(D[0]): random_matelement(n, r).scale(1e-3))
              for D in OVERFLOWING]
    assert len(cases) == 7
    rng = np.random.default_rng(8)
    for basis, sample in cases:
        n = basis.elements[0].n
        for xs, hook in zip((basis.scaled, basis.scaled_star), basis.family_hooks):
            oracle = matrix_family_ad(xs)
            for a in [sample(rng) for _ in range(3)] + [MatElement.zero(n)]:
                got, want = hook(a), oracle(a)
                assert [w.tobytes() for w in got] == [w.tobytes() for w in want]
            foreign = QElement.generator(torus_spec(THETA), 1)
            assert hook(foreign) is oracle(foreign) is None


def test_delta_reads_the_actions_a_diagonal_matrix_basis_holds():
    # the hooks bracket with ad[j].action and ad_star[j].action, the actions
    # that ad and the symbol read, each once per operand
    rng = np.random.default_rng(9)
    clocks = [MatElement(np.diag(np.exp(1j * rng.uniform(0, 6.3, 5)))) for _ in range(3)]
    basis, read = DifferentialBasis(clocks, prefactors=[0.5j, 1.0, -2 + 1j]), []

    def wrapped(act, slot):
        def counted(*keyed):
            read.append(slot)
            return act(*keyed)
        return counted
    for starred, fs in enumerate((basis.ad, basis.ad_star)):
        for j, f in enumerate(fs):
            f.action = wrapped(f.action, (starred, j))
    alpha = DifferentialForm.from_element(basis, random_matelement(5, rng))
    assert_same_form(delta(alpha), derive_per_bracket(alpha, basis.families))
    assert sorted(read) == [(starred, j) for starred in (0, 1) for j in range(3)]


def test_the_graph_hook_reads_the_vertex_tags_the_basis_holds(monkeypatch):
    basis, sample = CASES["star tree, a non-vertex slot"]
    basis = DifferentialBasis(basis.elements, mode="selfadjoint")  # no hook built yet
    built = []
    action = GraphElement.diagonal_action
    monkeypatch.setattr(GraphElement, "diagonal_action", lambda x: built.append(x) or action(x))
    alpha = DifferentialForm.from_element(basis, sample(np.random.default_rng(0)))
    assert_same_form(delta(alpha), derive_per_bracket(alpha, basis.families))
    assert built == []


def test_the_first_delta_holds_no_weight_stack_of_its_own():
    # the first delta over the M_64 projections holds its 64 output
    # coefficients, 4 MiB; a k x n^2 weight stack per family held 8 MiB more
    basis = DifferentialBasis(projection_basis(64), mode="selfadjoint")
    alpha = DifferentialForm.from_element(basis, random_matelement(64, np.random.default_rng(0)))
    tracemalloc.start()
    try:
        d = delta(alpha)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(d.terms) == 64
    assert held < 8 * 2 ** 20


def test_building_a_basis_builds_no_hook():
    basis = DifferentialBasis(projection_basis(5), mode="selfadjoint")
    assert "family_hooks" not in vars(basis)
    delta(DifferentialForm.from_element(basis, random_matelement(5, np.random.default_rng(0))))
    assert "family_hooks" in vars(basis)


def test_delta_builds_each_matrix_coefficient_once(monkeypatch):
    # the selftest's M_4 forms: delta of their derivatives builds no matrix
    # (every coefficient of delta^2 is zero), and one delta builds one matrix
    # per nonzero output coefficient
    (label, alphas), *_ = testing._delta_inputs()
    assert label == "matrix M_4"
    firsts = [delta(alpha) for alpha in alphas]
    built = []
    init = MatElement.__init__

    def counted(self, mat):
        built.append(1)
        init(self, mat)
    monkeypatch.setattr(MatElement, "__init__", counted)
    assert all(delta(d).terms == {} for d in firsts)
    assert built == []
    for alpha in alphas:
        built.clear()
        d = delta(alpha)
        assert len(built) == len(d.terms)


def test_delta_reads_each_operand_once_per_family(monkeypatch):
    # one warm check_delta_squared: each (form term, family) pair reads its
    # coefficient's keys at most once, where every slot read them before
    testing.check_delta_squared()
    pairs = {GraphElement: 0, MatElement: 0, QElement: 0}
    for _, alphas in testing._delta_inputs():
        basis = alphas[0].basis
        for alpha in alphas:
            n = len(alpha.terms) + len(delta(alpha).terms)
            pairs[type(basis.elements[0])] += n * len(basis.families)
    assert (pairs[GraphElement], pairs[MatElement]) == (508, 320)
    calls = {GraphElement: 0, MatElement: 0}
    for cls in calls:
        def counted(a, keyed=cls.keyed, cls=cls):
            calls[cls] += 1
            return keyed(a)
        monkeypatch.setattr(cls, "keyed", counted)
    testing.check_delta_squared()
    assert calls[GraphElement] <= pairs[GraphElement]
    assert calls[MatElement] <= pairs[MatElement]
