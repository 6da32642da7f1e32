"""The diagonal ``ad`` maps a -> [x, a] against the generic commutator.

A q-lattice monomial, a scaled vertex projection and a diagonal matrix act
on each key of ``a`` by one weight; every other element keeps
``carrier.commutator``, which is the oracle here.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from ncdiff import carrier, cohomology as C, dirichlet, forms, graph_algebra as ga
from ncdiff import qlattice
from ncdiff.carrier import commutator
from ncdiff.forms import DifferentialBasis, DifferentialForm, Symbol
from ncdiff.matrix_algebra import MatElement, projection_basis
from ncdiff.qlattice import (QAlgebraSpec, QElement, SpecMismatchError, _ARRAY_TERMS,
                             heisenberg_spec, torus_spec, torus_spec_2n)
from ncdiff.testing import (default_carriers, loop_graph, random_form, random_graph_element,
                            random_matelement, random_qelement, star_tree)

from conftest import MU, NU, THETA
from oracles import q_element

# operand sizes on both sides of the array cut
LOOP_SIZES = (1, 5, _ARRAY_TERMS)
ARRAY_SIZES = (_ARRAY_TERMS + 1, 300)


def _bits(x):
    return {k: (v.real.hex(), v.imag.hex()) for k, v in x.terms.items()}


def _q_bases():
    """Commuting monomial bases with complex prefactors."""
    torus, heis, t2n = torus_spec(THETA), heisenberg_spec(MU, NU), torus_spec_2n([0.3, 1.1])
    return [
        DifferentialBasis([QElement.generator(torus, 1), QElement.monomial(torus, (-2, 0))],
                          prefactors=[0.5 - 2j, 1j], label="torus {U, U^-2}"),
        DifferentialBasis([QElement.generator(heis, 3)], prefactors=[-1.5 + 0.25j],
                          label="heisenberg {W}"),
        DifferentialBasis([QElement.generator(heis, 1), QElement.monomial(heis, (1, -2, 0))],
                          prefactors=[2.0, 0.5j], label="heisenberg {U, U V^-2}"),
        DifferentialBasis([QElement.generator(t2n, 1), QElement.monomial(t2n, (-1, 0, 2, 0))],
                          prefactors=[1j, 0.3 + 0.4j], label="torus2n {U1, U1^-1 U3^2}"),
        DifferentialBasis([QElement.generator(QAlgebraSpec(np.zeros((3, 3))), 2)],
                          prefactors=[1 - 1j], label="commutative {U2}"),
    ]


def _each_ad(basis):
    for acts, xs in ((basis.ad, basis.scaled), (basis.ad_star, basis.scaled_star)):
        yield from zip(acts, xs)


@pytest.mark.parametrize("basis", _q_bases(), ids=lambda b: b.label)
def test_monomial_ad_matches_commutator(basis, rng):
    spec = basis.scaled[0].spec
    for act, x in _each_ad(basis):
        for n in LOOP_SIZES:
            a = q_element(spec, rng, 12, n)
            # the keys and every bit of every coefficient, signed zeros too
            assert _bits(act(a)) == _bits(commutator(x, a))
        for n in ARRAY_SIZES:
            a = q_element(spec, rng, 12, n)
            got, want = act(a), commutator(x, a)
            assert set(got.terms) == set(want.terms)
            assert all(type(v) is int for e in got.terms for v in e)
            for e, c in want.terms.items():
                assert abs(got.terms[e] - c) <= 1e-13 * max(1.0, abs(c)), e


def test_monomial_ad_routes(rng, monkeypatch):
    spec = torus_spec(THETA)
    act = QElement.generator(spec, 1).ad()
    entered = []
    # the array route reads the operand's keys
    keyed = QElement.keyed
    monkeypatch.setattr(QElement, "keyed", lambda a: entered.append(1) or keyed(a))
    act(q_element(spec, rng, 12, _ARRAY_TERMS))
    assert not entered
    act(q_element(spec, rng, 12, _ARRAY_TERMS + 1))
    assert entered == [1]


@pytest.mark.parametrize("n", [5, 200])
def test_monomial_ad_keeps_nan(n, rng):
    spec = heisenberg_spec(MU, NU)
    x = QElement.monomial(spec, (0, 1, 1), 0.5 + 1j)
    a = q_element(spec, rng, 12, n)
    e0 = next(iter(a.terms))
    a = QElement(spec, {**a.terms, e0: complex(math.nan, 0.0)})
    got, want = x.ad()(a), commutator(x, a)
    assert set(got.terms) == set(want.terms)
    nan_keys = {e for e, c in want.terms.items() if cmath.isnan(c)}
    assert nan_keys == {e for e, c in got.terms.items() if cmath.isnan(c)}
    assert nan_keys == {(e0[0], e0[1] + 1, e0[2] + 1)}


@pytest.mark.parametrize("n", [5, 200])
def test_monomial_ad_raises_on_overflowing_moduli(n, rng):
    # c a_e = 1.5e308 (1 + i) is finite, but its modulus overflows: the loop
    # raises from abs, and the weights of the array route raise as it does
    spec = QAlgebraSpec(np.zeros((3, 3)))  # no phases, so no part overflows
    x = QElement.monomial(spec, (0, 1, 1), 1e308 + 1e308j)
    a = QElement(spec, {e: 1.5 for e in q_element(spec, rng, 12, n).terms})
    for y in (a, a._from_keys(*a.keyed())):
        with pytest.raises(OverflowError):
            x.ad()(y)
    with pytest.raises(OverflowError):
        commutator(x, a)


@pytest.mark.parametrize("n", [5, 200])
def test_monomial_ad_huge_theta_gives_nan_without_warnings(n, rng):
    spec = torus_spec(1e308)
    x = QElement.generator(spec, 2)
    a = q_element(spec, rng, 12, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = x.ad()(a)
        want = commutator(x, a)
    assert set(got.terms) == set(want.terms)
    assert {e for e, c in got.terms.items() if cmath.isnan(c)} == \
        {e for e, c in want.terms.items() if cmath.isnan(c)} != set()


def test_monomial_ad_exponents_beyond_int64(rng):
    spec = torus_spec(THETA)
    big = 2 ** 63
    x = QElement.monomial(spec, (big, 1), 2j)
    for n in (3, 100):
        a = q_element(spec, rng, 12, n)
        assert _bits(x.ad()(a)) == _bits(commutator(x, a))
    a = QElement(spec, {(big + k, k): 1.0 + k for k in range(60)})
    assert _bits(QElement.generator(spec, 2).ad()(a)) == \
        _bits(commutator(QElement.generator(spec, 2), a))


def test_exponents_beyond_int64_have_no_keys(torus_basis):
    spec = torus_basis.elements[0].spec
    a = QElement(spec, {(2 ** 63, 0): 1.0, (1, 0): 2.0})
    assert a.keyed() is None
    with pytest.raises(C.TruncationError, match="escapes"):
        C.QMonomialBasis(spec, 2).entries(a)
    with pytest.raises(ValueError, match="too large"):
        dirichlet.heat_semigroup(a, 1.0, torus_basis)


def test_diagonal_matrix_ad(rng):
    basis = DifferentialBasis(projection_basis(5), mode="selfadjoint")
    for act, x in _each_ad(basis):
        a = random_matelement(5, rng)
        assert np.array_equal(act(a).mat, commutator(x, a).mat)
    d = MatElement(np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    a = random_matelement(4, rng)
    assert d.ad()(a).equal_within(commutator(d, a), tol=1e-14)


def test_matrix_ad_reads_the_shared_unit_keys(rng):
    # keyed() hands out one read-only unit array per n; _from_keys and the
    # diagonal action take it whole, and scatter any other key array
    keys, coeffs = random_matelement(4, rng).keyed()
    assert keys is MatElement.zero(4).keyed()[0] is C.MatrixCarrierBasis(4).keys
    assert np.array_equal(keys, np.arange(16)) and not keys.flags.writeable
    a = random_matelement(4, rng)
    assert np.array_equal(a._from_keys(*a.keyed()).mat, a.mat)
    assert np.array_equal(a._from_keys(keys[[6, 1]], [2.0, 1j]).mat,
                          2.0 * MatElement.unit(4, 1, 2).mat + 1j * MatElement.unit(4, 0, 1).mat)
    with pytest.raises(ValueError, match="finite"):
        a._from_keys(keys, np.full(16, np.nan))
    diagonal = MatElement(np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    for x in (diagonal, projection_basis(4)[2], random_matelement(4, rng)):
        for b in (random_matelement(4, rng), diagonal.adjoint(), MatElement.identity(4)):
            assert x.ad()(b).equal_within(commutator(x, b), tol=1e-14)
    landing, w = diagonal.diagonal_action()(keys[[3, 12]], np.array([1.0, 2.0]))
    assert landing.tolist() == [3, 12]
    assert w.tolist() == [commutator(diagonal, MatElement.unit(4, 0, 3)).mat[0, 3],
                          2.0 * commutator(diagonal, MatElement.unit(4, 3, 0)).mat[3, 0]]


@pytest.mark.parametrize("graph",[star_tree(5), loop_graph(3)], ids=["star", "loop"])
def test_vertex_projection_ad(graph, rng):
    basis = DifferentialBasis([ga.vertex_projection(graph, v) for v in graph.vertices],
                              prefactors=[1.0, 2 - 1j, 0.5j] + [1.0] * (len(graph.vertices) - 3),
                              mode="selfadjoint")
    for act, x in _each_ad(basis):
        for _ in range(5):
            a = random_graph_element(graph, rng, n_terms=6)
            got, want = act(a), commutator(x, a)
            assert set(got.terms) == set(want.terms)
            assert (got - want).norm() == 0.0


def _rotated_basis(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    mats = [MatElement(q @ np.diag(d) @ q.conj().T)
            for d in ([1.0, 1j, 0.0, -1j], [0.5, 1j, -1.0, 2.0])]
    return DifferentialBasis(mats, label="rotated")


def test_fallback_elements_take_the_commutator(rng):
    spec = torus_spec(THETA)
    U = QElement.generator(spec, 1)
    for act, x in _each_ad(DifferentialBasis([U + U * U], label="torus {U + U^2}")):
        a = random_qelement(spec, rng, n_terms=60)
        assert _bits(act(a)) == _bits(commutator(x, a))
    for act, x in _each_ad(_rotated_basis(rng)):
        a = random_matelement(4, rng)
        assert np.array_equal(act(a).mat, commutator(x, a).mat)
    # two monomials are diagonal elements, each on its own route
    basis = DifferentialBasis([U, U * U], label="torus {U, U^2}")
    for act, x in _each_ad(basis):
        a = random_qelement(spec, rng, n_terms=8)
        assert _bits(act(a)) == _bits(commutator(x, a))


def _diagonal_setups():
    """(basis, domain, codomain, sampler) with every [x, a] inside the codomain."""
    torus, heis = torus_spec(THETA), heisenberg_spec(MU, NU)
    star, loop = star_tree(4), loop_graph(3)
    q_bases = _q_bases()
    star_terms, loop_terms = C.GraphCarrierBasis(star, 1), C.GraphCarrierBasis(loop, 1)
    return [
        (q_bases[0], C.QMonomialBasis(torus, 1), C.QMonomialBasis(torus, 3),
         lambda r: random_qelement(torus, r)),
        (q_bases[1], C.QMonomialBasis(heis, 1), C.QMonomialBasis(heis, 2),
         lambda r: random_qelement(heis, r)),
        (q_bases[2], C.QMonomialBasis(heis, 1), C.QMonomialBasis(heis, 3),
         lambda r: random_qelement(heis, r)),
        (DifferentialBasis(projection_basis(4), mode="selfadjoint"), C.MatrixCarrierBasis(4),
         C.MatrixCarrierBasis(4), lambda r: random_matelement(4, r)),
        (DifferentialBasis([ga.vertex_projection(star, v) for v in star.vertices],
                           mode="selfadjoint"),
         star_terms, star_terms, lambda r: random_graph_element(star, r)),
        (DifferentialBasis([ga.vertex_projection(loop, v) for v in loop.vertices],
                           mode="selfadjoint"),
         loop_terms, loop_terms, lambda r: random_graph_element(loop, r)),
    ]


def _patch_commutator(monkeypatch):
    calls = []

    def counted(x, a):
        calls.append(x)
        return x * a - a * x

    monkeypatch.setattr(carrier, "commutator", counted)
    for module in (forms, dirichlet, C, ga, qlattice):
        if hasattr(module, "commutator"):
            monkeypatch.setattr(module, "commutator", counted)
    return calls


def test_diagonal_bases_never_form_the_commutator(rng, monkeypatch):
    setups = _diagonal_setups()
    rotated = _rotated_basis(rng)
    calls = _patch_commutator(monkeypatch)
    for basis, domain, codomain, sample in setups:
        for _ in range(3):
            forms.delta(random_form(basis, sample, rng))
            forms.delta(DifferentialForm.from_element(basis, sample(rng)))
            dirichlet.laplacian(sample(rng), basis)
        elems = domain.elements()
        for x in basis.scaled + basis.scaled_star:
            C._ad_matrix(x, elems, codomain)
    assert calls == []
    # the patch sees the generic route
    dirichlet.laplacian(random_matelement(4, rng), rotated)
    assert len(calls) == 2 * len(rotated.scaled)


def _foreign_operands(rng):
    """(element, operands over another parent or carrier) per diagonal element kind."""
    torus = torus_spec(THETA)
    star = star_tree(4)
    return [
        (QElement.generator(torus, 1),
         [random_qelement(torus_spec(THETA / 2), rng), random_matelement(2, rng),
          random_graph_element(star, rng)]),
        (ga.vertex_projection(star, "v1").scale(2j),
         [random_graph_element(star_tree(4), rng), random_qelement(torus, rng),
          random_matelement(2, rng)]),
        (projection_basis(3)[1],
         [random_matelement(2, rng), random_qelement(torus, rng),
          random_graph_element(star, rng)]),
    ]


def test_ad_raises_as_the_commutator_does(rng):
    for x, foreign in _foreign_operands(rng):
        for a in foreign:
            with pytest.raises(Exception) as want:
                commutator(x, a)
            with pytest.raises(want.type) as got:
                x.ad()(a)
            assert str(got.value) == str(want.value)
    with pytest.raises(SpecMismatchError):
        QElement.generator(torus_spec(THETA), 1).ad()(random_qelement(torus_spec(1.0), rng))
    with pytest.raises(TypeError):
        projection_basis(2)[0].ad()(random_qelement(torus_spec(THETA), rng))


def test_huge_theta_ad_matrix_error_matches_the_commutator(monkeypatch):
    spec = torus_spec(1e308)
    U = QElement.generator(spec, 1)
    domain, codomain = C.QMonomialBasis(spec, 2), C.QMonomialBasis(spec, 3)
    elems = domain.elements()
    with pytest.raises(ValueError, match=r"non-finite coefficient \(nan\+nanj\)") as got:
        C._ad_matrix(U, elems, codomain)
    with pytest.raises(ValueError) as diagonal:
        _block(U, domain, codomain)
    monkeypatch.setattr(QElement, "ad", lambda x: lambda a: commutator(x, a))
    with pytest.raises(ValueError) as want:
        C._ad_matrix(U, elems, codomain)
    assert str(got.value) == str(diagonal.value) == str(want.value)


# -- cohomology maps from the diagonal action ---------------------------------


def _block(x, domain, codomain):
    """The triplets of a -> [x, a] from ``domain`` into ``codomain``, as the
    cohomology maps build them."""
    (_, _, block), = C._commutator_blocks(Symbol([x]), (False,), domain, codomain)
    return block


def _diagonal_map(x, domain, codomain):
    """The triplets of a -> [x, a] on the diagonal route, checked to be taken."""
    assert x.diagonal_action() is not None
    return _block(x, domain, codomain)


def _assert_same_map(x, domain, codomain):
    rows, cols, vals, shape = _diagonal_map(x, domain, codomain)
    want_rows, want_cols, want_vals, want_shape = C._ad_matrix(x, domain.elements(), codomain)
    assert shape == want_shape
    got = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
    want = dict(zip(zip(want_rows.tolist(), want_cols.tolist()), want_vals.tolist()))
    assert len(got) == len(rows) and set(got) == set(want)
    scale = max(map(abs, want.values()), default=0.0)
    assert all(abs(got[k] - v) <= 1e-14 * scale for k, v in want.items())


def _carrier_coordinates(label, basis):
    """(domain, codomain) for a default carrier family: the q-lattice ones on
    nested balls K -> K + 1, since their basis elements have degree 1."""
    x = basis.elements[0]
    if label.startswith("matrix"):
        return C.MatrixCarrierBasis(x.n), C.MatrixCarrierBasis(x.n)
    if label.startswith("graph"):
        terms = C.GraphCarrierBasis(x.graph, 2)
        return terms, terms
    K = 4 if label == "torus" else 2
    return C.QMonomialBasis(x.spec, K), C.QMonomialBasis(x.spec, K + 1)


@pytest.mark.parametrize("family", range(5))
def test_diagonal_maps_match_the_per_key_route(family):
    label, basis, _ = default_carriers()[family]
    domain, codomain = _carrier_coordinates(label, basis)
    for x in basis.scaled + basis.scaled_star:
        _assert_same_map(x, domain, codomain)


@pytest.mark.parametrize("basis", _q_bases(), ids=lambda b: b.label)
def test_diagonal_maps_with_prefactors_on_nested_balls(basis):
    spec = basis.elements[0].spec
    d = C._max_basis_degree(basis)
    for K in (1, 3):
        domain, codomain = C.QMonomialBasis(spec, K), C.QMonomialBasis(spec, K + d)
        for x in basis.scaled + basis.scaled_star:
            _assert_same_map(x, domain, codomain)


def test_diagonal_maps_drop_exactly_trivial_phases():
    # at theta = 2 pi / 3, U^3 commutes with everything and U with every
    # monomial whose V-exponent is a multiple of 3: those phases round to
    # about 1e-16 and are dropped on both routes
    spec = torus_spec(2 * math.pi / 3)
    domain, codomain = C.QMonomialBasis(spec, 4), C.QMonomialBasis(spec, 7)
    for g in ((1, 0), (3, 0), (0, 1), (2, -3)):
        x = QElement.monomial(spec, g, 1.5 - 0.5j)
        for y in (x, x.adjoint()):
            _assert_same_map(y, domain, codomain)
    _, cols, _, _ = _diagonal_map(QElement.generator(spec, 1), domain, codomain)
    V_exponents = domain.keys[cols, 1]
    assert len(cols) and not (V_exponents % 3 == 0).any()
    assert len(_diagonal_map(QElement.monomial(spec, (3, 0)), domain, codomain)[0]) == 0


def test_diagonal_maps_escape_only_with_a_nonzero_entry():
    flat = QAlgebraSpec(np.zeros((2, 2)))
    ball = C.QMonomialBasis(flat, 1)
    # every image of U leaves the K = 1 ball for e_1 = 1, but a commutative
    # presentation makes every entry zero
    for route in (lambda x: _block(x, ball, ball),
                  lambda x: C._ad_matrix(x, ball.elements(), ball)):
        assert len(route(QElement.generator(flat, 1))[0]) == 0
    spec = torus_spec(2 * math.pi / 3)
    ball = C.QMonomialBasis(spec, 1)
    assert len(_diagonal_map(QElement.monomial(spec, (3, 0)), ball, ball)[0]) == 0
    for x in (QElement.generator(spec, 1), QElement.monomial(spec, (0, -2))):
        with pytest.raises(C.TruncationError) as got:
            _block(x, ball, ball)
        with pytest.raises(C.TruncationError) as want:
            C._ad_matrix(x, ball.elements(), ball)
        assert str(got.value) == str(want.value)


def _foreign_carriers():
    """(x, domain, codomain) where x or the codomain is foreign to the domain."""
    torus, star = torus_spec(THETA), star_tree(4)
    q, m4, g = C.QMonomialBasis(torus, 1), C.MatrixCarrierBasis(4), C.GraphCarrierBasis(star, 1)
    return [
        (QElement.generator(torus_spec(THETA / 2), 1), q, q),
        (projection_basis(3)[0], m4, m4),
        (projection_basis(4)[0], m4, C.MatrixCarrierBasis(3)),
        (ga.vertex_projection(star_tree(4), "v1"), g, g),
        (QElement.generator(torus, 1), m4, m4),
        (projection_basis(4)[1], g, g),
        (ga.vertex_projection(star, "root").scale(2j), q, q),
    ]


def test_foreign_carriers_raise_as_the_per_key_route():
    messages = []
    for x, domain, codomain in _foreign_carriers():
        with pytest.raises(Exception) as want:
            C._ad_matrix(x, domain.elements(), codomain)
        with pytest.raises(want.type) as got:
            _block(x, domain, codomain)
        assert str(got.value) == str(want.value)
        messages.append(str(got.value))
    assert messages[:4] == ["elements live over different presentations",
                            "dimension mismatch: 3 vs 4", "dimension mismatch: 3 vs 4",
                            "elements live over different graphs"]


def test_diagonal_cohomology_never_takes_the_per_key_route(monkeypatch):
    setups = _diagonal_setups()
    per_key = []
    ad_matrix = C._ad_matrix
    monkeypatch.setattr(C, "_ad_matrix", lambda *args: per_key.append(args[0]) or ad_matrix(*args))
    calls = _patch_commutator(monkeypatch)
    for basis, domain, codomain, _ in setups:
        for x in basis.scaled + basis.scaled_star:
            _block(x, domain, codomain)
    assert per_key == [] and calls == []
    # an element without a diagonal action takes it
    spec = torus_spec(THETA)
    U = QElement.generator(spec, 1)
    ball = C.QMonomialBasis(spec, 1)
    _block(U + U * U, ball, C.QMonomialBasis(spec, 3))
    assert len(per_key) == 1 and len(calls) == ball.dim
