"""A matrix basis read from its family's arrays (``matrix_algebra.scaled_family``)
against the per-element route of ``oracles.PerElementBasis``: the held
elements, eigenbasis, actions, symbol and calculus bit for bit on every
family, and the same rejection, message and warnings for every input."""

import math
import warnings

import numpy as np
import pytest

from ncdiff import dirichlet as D
from ncdiff.forms import DifferentialBasis, DifferentialForm, _unit, delta
from ncdiff.matrix_algebra import MatElement, MatrixCarrierBasis, projection_basis, scaled_family
from ncdiff.qlattice import QElement, torus_spec
from ncdiff.testing import random_matelement

from oracles import PerElementBasis, benchmark_workloads


def _diag(*d):
    return MatElement(np.diag(np.array(d, dtype=complex)))


def _random_unitary(n, rng):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def _rotated_unitaries(n, seed):
    """Two commuting unitaries Q diag(exp(i phi)) Q^*, one eigenbasis Q."""
    rng = np.random.default_rng(seed)
    q = _random_unitary(n, rng)
    return [MatElement(q @ np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, n))) @ q.conj().T)
            for _ in range(2)]


def _rotated_projections(n, seed):
    q = _random_unitary(n, np.random.default_rng(seed))
    return [MatElement(q @ p.mat @ q.conj().T) for p in projection_basis(n)]


def _complex_diagonals(k, n, seed):
    rng = np.random.default_rng(seed)
    return [MatElement(np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
            for _ in range(k)]


# (elements, prefactors, mode) of the families both routes accept
FAMILIES = {
    **{f"projections-{n}": (projection_basis(n), None, "selfadjoint") for n in range(2, 17)},
    "projections-3-complex": (projection_basis(3), None, "complex"),
    "projections-4-prefactors": (projection_basis(4), [1e200, 1e-11, 0.8 + 0.3j, -2j],
                                 "selfadjoint"),
    "complex-diagonals": (_complex_diagonals(3, 5, 1), [0.8 + 0.3j, 1e200, 1e-11], "complex"),
    "complex-diagonals-selfadjoint-prefactors": (
        [_diag(1, -2, 3.5), _diag(0, 0.25, -1)], [1e-11j, 1e200 - 1e199j], "selfadjoint"),
    "unit-modulus-diagonals": (
        [_diag(*np.exp(2j * math.pi * np.arange(5) / 5)), _diag(1j, -1, 1, -1j, 1)],
        [1.0, 1e-11], "complex"),
    "overflowing-weights": ([_diag(1.5e308, -1.5e308)], None, "selfadjoint"),
    "subnormal-norm-inverse-finite": ([_diag(1e-308, 0), _diag(0, 3e-308j)], None, "complex"),
    # 1 / |U| overflows, so U / |U| divides
    "subnormal-norm": ([_diag(1e-310, 0)], None, "complex"),
    "subnormal-norm-selfadjoint": ([_diag(1e-310, 0), _diag(0, 1)], None, "selfadjoint"),
    "subnormal-norm-complex": ([_diag(1e-310, 3e-311j), _diag(2e-312j, 0)], None, "complex"),
    "zero-slot-before-subnormal": ([_diag(1e-310, 0)], [0.1], "complex"),
    "subnormal-norm-in-rotated-family": ([_diag(1e-310, 0), MatElement(
        np.array([[0, 1], [1, 0]], dtype=complex))], None, "complex"),
    "subnormal-norm-rotated": ([MatElement(1e-310 * _rotated_projections(2, 2)[0].mat)], None,
                               "complex"),
    "zero-matrix": ([MatElement.zero(3)], None, "selfadjoint"),
    "zero-and-projection": ([MatElement.zero(3), projection_basis(3)[1]], [2.0, 0.5],
                            "complex"),
    "one-by-one": ([_diag(2.0), _diag(1j)], [1.0, 3.0], "complex"),
    "rotated-unitaries-6": (_rotated_unitaries(6, 6), [0.8 + 0.3j, 1.1 - 0.4j], "complex"),
    "rotated-unitaries-9": (_rotated_unitaries(9, 9), [1e-11, 1e200], "complex"),
    "rotated-projections-5": (_rotated_projections(5, 5), None, "selfadjoint"),
    "real-diagonal-and-scalar": ([_diag(1, 2, 3), MatElement(np.eye(3) * 1j)], None, "complex"),
}


def _build(cls, elements, prefactors, mode):
    """The basis, or the (type, message) it raises, and the (category, text,
    file, line) of each warning; numpy's RuntimeWarnings, which only the
    oracle gives on the way to some rejections, are left out."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = cls(elements, prefactors=prefactors, mode=mode, label="family")
        except Exception as exc:  # every rejection is compared below
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message), w.filename, w.lineno) for w in caught
                 if w.category is not RuntimeWarning]


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _same_mats(got, want):
    assert [_bits(x.mat) for x in got] == [_bits(x.mat) for x in want]


def _outcome(call):
    """The result, or the rejection: a ValueError, or numpy's RuntimeWarning
    where a product overflows on a basis scaled by 1e200."""
    try:
        return call()
    except (ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)


def _same(got, want):
    """The same rejection, element or form, bit for bit."""
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(want, DifferentialForm):
        assert set(got.terms) == set(want.terms)
        for key, a in want.terms.items():
            assert _bits(got.terms[key].mat) == _bits(a.mat), key
    else:
        assert _bits(got.mat) == _bits(want.mat)


def _weights(act, n):
    if act is None:
        return None
    flat = np.arange(n * n)
    return [_bits(w) for w in (act(flat, np.ones(n * n))[1], act(flat[::-1], np.ones(n * n))[1])]


def _assert_same_basis(got, want, operands):
    n = got.elements[0].n
    _same_mats(got.scaled, want.scaled)
    _same_mats(got.scaled_star, want.scaled_star)
    _same_mats(got.diagonal, want.diagonal)
    (gQ, glams), (wQ, wlams) = got.eigenbasis, want.eigenbasis
    assert (gQ is None) == (wQ is None) and (gQ is None or _bits(gQ) == _bits(wQ))
    assert [_bits(x) for x in glams] == [_bits(x) for x in wlams]
    for held, oracle in ((got.ad, want.ad), (got.ad_star, want.ad_star)):
        assert [_weights(f.action, n) for f in held] == [_weights(f.action, n) for f in oracle]
    units = MatrixCarrierBasis(n)
    for symbol in ("symbol", "scaled_symbol"):
        assert _outcome(lambda: _bits(getattr(got, symbol).on(units).lam())) == \
            _outcome(lambda: _bits(getattr(want, symbol).on(units).lam()))
    for a in operands:
        for call in (lambda b: delta(DifferentialForm.from_element(b, a)),
                     lambda b: D.laplacian(a, b), lambda b: D.heat_semigroup(a, 0.7, b)):
            _same(_outcome(lambda: call(got)), _outcome(lambda: call(want)))


@pytest.mark.parametrize("name", FAMILIES)
def test_a_family_is_held_as_the_per_element_route_holds_it(name):
    elements, prefactors, mode = FAMILIES[name]
    got, got_warnings = _build(DifferentialBasis, elements, prefactors, mode)
    want, want_warnings = _build(PerElementBasis, elements, prefactors, mode)
    assert isinstance(got, DifferentialBasis) and isinstance(want, DifferentialBasis)
    assert got_warnings == want_warnings
    assert all(w[2] == __file__ for w in got_warnings)  # the caller's line
    n = elements[0].n
    rng = np.random.default_rng(len(name))
    _assert_same_basis(got, want, [random_matelement(n, rng), MatElement.identity(n), elements[0]])


@pytest.mark.parametrize("numerators", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_the_benchmark_clock_family_is_held_as_the_per_element_route_holds_it(
        numerators, monkeypatch):
    workloads = benchmark_workloads(monkeypatch)
    got = workloads.clock_shift_basis(workloads.load_ncdiff(), numerators)
    assert got.eigenbasis[0] is None and got.diagonal is got.scaled
    _assert_same_basis(got, PerElementBasis(got.elements, label=got.label),
                       [random_matelement(12, np.random.default_rng(12))])


@pytest.mark.parametrize("name", [name for name, (els, _, _) in FAMILIES.items()
                                  if all(not (x.mat - np.diag(np.diag(x.mat))).any()
                                         for x in els)])
def test_the_held_defects_are_those_of_the_unit_elements(name):
    elements, prefactors, _ = FAMILIES[name]
    prefactors = prefactors or [1.0] * len(elements)
    held = scaled_family([u.mat for u in elements], [complex(c) for c in prefactors])[4]
    norms, defects, diagonals = held
    assert list(norms) == [(complex(c) * u).norm() for c, u in zip(prefactors, elements)]
    assert list(defects) == [(v - v.adjoint()).norm() for v in map(_unit, elements)]
    assert [_bits(d) for d in diagonals] == [_bits(np.diag(u.mat)) for u in elements]


def test_a_subnormal_norm_is_divided_out():
    """1 / |x| overflows, so each part of each coefficient is divided by |x|;
    a normal |x| keeps the product by 1 / |x|."""
    m = np.array([[1e-310, 3e-311j], [-2e-312 + 4e-313j, 0]])
    got = _unit(MatElement(m)).mat
    assert _bits(got.real) == _bits(m.real / 1e-310) and _bits(got.imag) == _bits(m.imag / 1e-310)
    spec = torus_spec(0.3)
    spec.prune_epsilon = 0.0
    terms = {(1, 0): 1e-310 + 0j, (0, 2): -3e-311j, (2, -1): 2e-312 + 4e-313j}
    got = _unit(QElement(spec, terms)).terms
    assert got == {k: complex(c.real / 1e-310, c.imag / 1e-310) for k, c in terms.items()}
    x = MatElement(np.diag([1e-308, 2e-309]))
    assert _bits(_unit(x).mat) == _bits(complex(1 / 1e-308) * x.mat)


SX = MatElement(np.array([[0, 1], [1, 0]], dtype=complex))
E12 = MatElement.unit(2, 0, 1)
P2, P3 = projection_basis(2), projection_basis(3)

# (elements, prefactors, mode) of inputs that fail, some of them two checks
REJECTED = {
    "scaled-overflow": ([_diag(1e10, 1)], [1e300], "complex"),
    "infinite-prefactor": (P3, [1.0, math.inf, 1.0], "selfadjoint"),
    "nan-prefactor": (P2, [math.nan, 1.0], "selfadjoint"),
    "infinite-prefactor-one-by-one": ([_diag(0.0)], [math.inf], "complex"),
    "zero-prefactor": (P3, [1.0, 0.0, 1.0], "selfadjoint"),
    "prefactor-underflow": ([_diag(1e-200, 0)], [1e-200], "selfadjoint"),
    "dimension-mismatch": ([P2[0], P3[0]], None, "selfadjoint"),
    "non-commuting": ([SX, _diag(1, -1)], None, "complex"),
    "commuting-non-normal": ([E12, E12 + MatElement.identity(2)], None, "complex"),
    "non-hermitian-in-selfadjoint-mode": ([_diag(1, 1j)], None, "selfadjoint"),
    "overflow-before-zero-slot": ([P2[0], _diag(1e10, 1)], [0.0, 1e300], "complex"),
    "zero-slot-before-dimensions": ([P2[0], P3[0]], [0.0, 1.0], "selfadjoint"),
    "overflow-before-dimensions": ([P2[0], _diag(1e10, 1, 1)], [1.0, 1e300], "selfadjoint"),
    "dimensions-before-commuting": ([SX, P3[0]], None, "complex"),
    "commuting-before-selfadjoint": ([SX, _diag(1, 1j)], None, "selfadjoint"),
    # U / |U| divides, and is not self-adjoint
    "subnormal-before-selfadjoint": ([_diag(1e-310j, 0)], None, "selfadjoint"),
    "zero-slot-before-commuting": ([SX, _diag(1, -1)], [0.0, 1.0], "complex"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_a_rejected_family_fails_the_check_the_per_element_route_fails(name):
    elements, prefactors, mode = REJECTED[name]
    got, got_warnings = _build(DifferentialBasis, elements, prefactors, mode)
    want, want_warnings = _build(PerElementBasis, elements, prefactors, mode)
    assert isinstance(want, tuple), want
    assert got == want and got_warnings == want_warnings


def test_a_diagonal_family_pays_no_element_round_trip_per_slot(monkeypatch):
    elements = projection_basis(16)
    built, acted = [], []
    init, action = MatElement.__init__, MatElement.diagonal_action
    monkeypatch.setattr(MatElement, "__init__", lambda x, m: built.append(x) or init(x, m))
    monkeypatch.setattr(MatElement, "diagonal_action", lambda x: acted.append(x) or action(x))
    basis = DifferentialBasis(elements, mode="selfadjoint")
    # no element is copied and checked, no slot checks its own diagonal
    assert built == [] and acted == []
    assert basis.eigenbasis[0] is None and all(f.action is not None for f in basis.ad)
