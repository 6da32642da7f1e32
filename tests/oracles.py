"""Slow reference paths, kept as the oracles of the library's fast routes.

Each function here computes a result the library now gets another way: the
q-lattice and graph-algebra products by the pair loop at any size (the
library switches to an array route above a cut), the q-lattice product and
monomial bracket loops with every angle formed in full (the library forms
each angle's first factors once per term), the derivative of a form
with one element per bracket (the library sums the brackets of each output
coefficient in its carrier's raw terms), the Laplacian and heat
channel of a matrix basis as n^2 x n^2 Kronecker superoperators with an
``eigh`` (the library reads the Schur symbol in the basis's eigenbasis),
the Trotter splitting error by ``expm`` of those superoperators (the library
reads two Schur symbols), and a matrix basis validated and held one element
at a time (the library reads a matrix family from its arrays in one pass).
The sampled audit's random draws and the seeded inputs of the selftest
battery are also drawn here afresh on every call (the library holds its last
seeded draw of each), and the audit's rows are computed over the whole
sample stacks at once (the library draws and checks them in blocks), and
once more with every heat rotated back out of the eigenbasis (the library
reads the rows in the eigenbasis).
Superoperators act on row-major vectorized matrices.

The operands and comparisons that the route tests of both term carriers
share are here too: seeded operands, copies held as a dict only or as
arrays only, and term-by-term comparisons, bit for bit or within a bound.
So are the inverses of two writers that the package ships without a
reader: :func:`element_from_json` reads back the element JSON of
``ncdiff eval --json`` (``qlattice.element_to_json``), and :func:`to_text`
renders an ``expr`` AST back to text that ``expr.parse`` reads.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import operator
import pathlib
import sys
import warnings
from typing import Iterable, Mapping

import numpy as np
import scipy.linalg

from ncdiff import graph_algebra, matrix_algebra, qlattice
from ncdiff.carrier import EQ_TOLERANCE, add_terms, commutator
from ncdiff.forms import (BasisConditionError, DifferentialBasis, DifferentialForm, Symbol,
                          _unit)
from ncdiff.graph_algebra import GraphElement, Path, common_range_pairs
from ncdiff.matrix_algebra import MatElement, MatrixCarrierBasis, joint_eigenbasis
from ncdiff.expr import (Add, Adj, Comm, Delta, Gen, Mul, Neg, Num, Pow, Sub, ThetaHat,
                         Wedge)
from ncdiff.qlattice import QAlgebraSpec, QElement, _exponents, torus_spec
from ncdiff.testing import default_carriers, random_form, random_qelement


def pair_product(spec, ta: dict, tb: dict) -> dict:
    """Unpruned terms of the q-lattice product, one term pair at a time, each
    angle from ``qlattice._angle`` in full: the oracle of the product loop
    ``qlattice._pair_product``, which forms the first factors once per term."""
    out: dict = {}
    for e, ca in ta.items():
        for f, cb in tb.items():
            ang = qlattice._angle(spec, e, f)
            c = ca * cb
            if ang != 0.0:
                c *= cmath.exp(1j * ang)
            g = tuple(x + y for x, y in zip(e, f))
            out[g] = out.get(g, 0j) + c
    return out


def monomial_ad_loop(spec, g: tuple, c: complex, terms: dict, acc, sign: int) -> dict:
    """The term dict ``acc`` (new for None) plus sign [c U^g, a], one term of
    ``a`` at a time, both angles from ``qlattice._angle`` in full: the oracle
    of ``qlattice._monomial_ad_loop`` and of its sums in ``forms.delta``."""
    eps = spec.prune_epsilon
    out = {}
    for e, ae in terms.items():
        phi1, phi2 = qlattice._angle(spec, g, e), qlattice._angle(spec, e, g)
        p1 = c * ae
        if phi1 != 0.0:
            p1 *= cmath.exp(1j * phi1)
        p2 = ae * c
        if phi2 != 0.0:
            p2 *= cmath.exp(1j * phi2)
        key = tuple(map(operator.add, g, e))
        if not abs(p1) <= eps:
            out[key] = p1 if abs(p2) <= eps else p1 - p2
        elif not abs(p2) <= eps:
            out[key] = -p2
    return add_terms(acc, out.items(), sign, eps)


def loop_product(a: QElement, b: QElement) -> QElement:
    """``a * b`` by the pair loop at any size: the oracle of the array route."""
    return a._like(pair_product(a.spec, a.terms, b.terms))


def graph_loop_product(a: GraphElement, b: GraphElement) -> GraphElement:
    """``a * b`` by the pair loop at any size: the oracle of the graph array route."""
    return a._like(graph_algebra._pair_product(a.terms, b.terms))


def derive_per_bracket(alpha: DifferentialForm, families: tuple) -> DifferentialForm:
    """``forms._derive`` one element at a time: each bracket [x_j, a] is the
    element ``ad(a)`` of the basis's maps, negated as an element when its
    sign is -1 and summed into its output coefficient as elements sum.  The
    oracle of the raw accumulators of ``delta``, ``partial`` and
    ``partial_star``."""
    basis = alpha.basis
    acts = (basis.ad, basis.ad_star)
    out: dict = {}
    for (I, J), a in alpha.terms.items():
        rows = basis.front_merges(I, J)
        for starred in families:
            for hit, act in zip(rows[starred], acts[starred]):
                if hit is None:
                    continue
                sign, key = hit
                term = act(a) if sign > 0 else -act(a)
                out[key] = out[key] + term if key in out else term
    return alpha._like(out)


def per_element_action(x: MatElement):
    """The diagonal action of one diag(d), computed from x alone: the unit with
    flat index a n + b weighs d(a) - d(b), a quiet nan where that overflows.
    None for any other matrix."""
    d = np.diag(x.mat)
    if (x.mat - np.diag(d)).any():
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        W = (d[:, None] - d[None, :]).reshape(-1)
    W[~np.isfinite(W)] = np.nan
    units = matrix_algebra._unit_keys(x.n)
    return lambda flat, coeffs: (flat, (W if flat is units else W[flat]) * coeffs)


class PerElementBasis(DifferentialBasis):
    """A differential basis validated and held one element at a time: per slot
    the elements c U, (c U)^*, U / |U|, its adjoint and their difference, four
    full norms, ``joint_eigenbasis`` on every matrix family, and each ``ad``
    map's action from its own element (:func:`per_element_action`).  The
    oracle of ``matrix_algebra.scaled_family``, with its order of checks and
    its messages; numpy's RuntimeWarnings on the way are its own."""

    def __init__(self, elements, prefactors=None, mode="complex", label=""):
        if mode not in ("complex", "selfadjoint"):
            raise ValueError(f"unknown mode {mode!r}")
        self.elements = list(elements)
        if not self.elements:
            raise ValueError("basis needs at least one element")
        n = len(self.elements)
        self.prefactors = [complex(c) for c in (prefactors if prefactors is not None
                                                else [1.0] * n)]
        if len(self.prefactors) != n:
            raise ValueError("one prefactor per basis element")
        self.mode = mode
        self.label = label

        self.scaled = [c * u for c, u in zip(self.prefactors, self.elements)]
        for j, (x, u) in enumerate(zip(self.scaled, self.elements)):
            if x.norm() == 0.0 and u.norm() != 0.0:
                raise BasisConditionError(f"basis element {j + 1} times its prefactor is zero")
        self.scaled_star = [x.adjoint() for x in self.scaled]
        self.eigenbasis = None
        if all(isinstance(u, MatElement) for u in self.elements):
            for u in self.elements[1:]:
                self.elements[0]._check(u)
            self.eigenbasis = joint_eigenbasis([u.mat for u in self.elements])
            commuting = self.eigenbasis is not None
        else:
            units = [_unit(x) for x in self.scaled + self.scaled_star]
            commuting = all(commutator(x, y).norm() <= EQ_TOLERANCE
                            for i, x in enumerate(units[:n])
                            for y in units[i + 1:n] + units[n + i:])
        if not commuting:
            raise BasisConditionError(
                "basis elements and their adjoints must mutually commute")
        hermitian = [(v - v.adjoint()).norm() <= EQ_TOLERANCE
                     for v in map(_unit, self.elements)]
        if mode == "selfadjoint":
            if not all(hermitian):
                raise BasisConditionError(
                    "self-adjoint mode needs self-adjoint basis elements")
        else:
            for j, h in enumerate(hermitian):
                if h:
                    warnings.warn(f"basis element {j + 1} is self-adjoint; the "
                                  "paired covectors dU, dU* coincide on it",
                                  stacklevel=2)

        Q, lams = self.eigenbasis or (None, None)
        self.diagonal = self.scaled if Q is None else [
            MatElement(np.diag(c * lam)) for c, lam in zip(self.prefactors, lams)]
        self.ad, self.ad_star = ([x.ad(per_element_action(x)) if isinstance(x, MatElement)
                                  else x.ad() for x in xs]
                                 for xs in (self.scaled, self.scaled_star))
        self.scaled_symbol = Symbol(self.scaled, (self.ad, self.ad_star))
        self.symbol = self.scaled_symbol if Q is None else Symbol(self.diagonal)
        self.families = (False,) if mode == "selfadjoint" else (False, True)
        self._front = {}


def benchmark_workloads(monkeypatch):
    """The benchmark's ``workloads`` module, loaded from its file."""
    path = pathlib.Path(__file__).parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _comm_superop(X: np.ndarray, n: int) -> np.ndarray:
    return np.kron(X, np.eye(n)) - np.kron(np.eye(n), X.T)


def delta_superoperator(basis, n: int) -> np.ndarray:
    """Delta = sum_j M_j^* M_j with M_j the commutator superoperator of c_j U_j."""
    D = np.zeros((n * n, n * n), dtype=complex)
    for X in (x.mat for x in basis.scaled):
        M = _comm_superop(X, n)
        Ms = _comm_superop(X.conj().T, n)
        D += Ms @ M
    return D


def _expm_negative(D: np.ndarray, t: float) -> np.ndarray:
    """exp(-t D) for the Hermitian D = sum_j M_j^* M_j, via ``eigh``.

    Exactly diagonal generators (the projection basis) exponentiate
    entrywise, keeping fixed points bit-exact.
    """
    diag = np.diag(D)
    if not (D - np.diag(diag)).any():
        return np.diag(np.exp(-t * diag.real))
    lam, V = np.linalg.eigh(D)
    return (V * np.exp(-t * lam)) @ V.conj().T


def heat_superoperator(t: float, basis, n: int) -> np.ndarray:
    if t < 0:
        raise ValueError("time must be nonnegative")
    return _expm_negative(delta_superoperator(basis, n), t)


def choi_matrix(t: float, n: int, basis) -> MatElement:
    """Choi matrix sum_{ij} e_ij (x) Phi_t(e_ij) of the heat channel."""
    S = heat_superoperator(t, basis, n)
    C = S.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)
    return MatElement(C)


def matrix_heat_symbol(basis, n: int) -> np.ndarray:
    """W[a, b] = sum_j |w_j(e_ab)|^2 per matrix unit e_ab of M_n, as the heat
    flow formed it on every call: each element of ``basis.diagonal`` builds
    its diagonal action afresh and weighs every unit, with unit coefficients,
    and the squared moduli sum in slot order."""
    flat, ones = np.arange(n * n), np.ones(n * n)
    with np.errstate(over="ignore", invalid="ignore"):
        W = sum(np.abs(x.diagonal_action()(flat, ones)[1]) ** 2 for x in basis.diagonal)
    return W.reshape(n, n)


def trotter_split(basis, n):
    """K1 = sum (U^* . U + U . U^*) and K2 = A . + . A with A = -sum U^* U, as
    n^2 x n^2 superoperators on row-major vectorized matrices."""
    K1 = np.zeros((n * n, n * n), dtype=complex)
    A = np.zeros((n, n), dtype=complex)
    for x in basis.scaled:
        X = x.mat
        Xs = X.conj().T
        K1 += np.kron(Xs, X.T) + np.kron(X, Xs.T)
        A -= Xs @ X
    return K1, np.kron(A, np.eye(n)) + np.kron(np.eye(n), A.T)


def superoperator_trotter(t, steps, n, basis):
    """The splitting error of ``trotter_check`` by ``expm`` of the superoperators."""
    K1, K2 = trotter_split(basis, n)
    h = t / steps
    step = scipy.linalg.expm(h * K1) @ scipy.linalg.expm(h * K2)
    approx = np.linalg.matrix_power(step, steps)
    return float(np.linalg.norm(approx - scipy.linalg.expm(t * (K1 + K2)), 2))


def audit_samples(n: int, samples: int, seed, Q=None):
    """The random pairs A, B and operators with spectrum in [0, 1] of
    ``audit_semigroup``, drawn afresh from ``default_rng(seed)``, each whole
    stack then taken into the eigenbasis Q, Q^* x Q (left as drawn for Q None)."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((samples, 4, n, n))
    A = draws[:, 0] + 1j * draws[:, 1]
    B = draws[:, 2] + 1j * draws[:, 3]
    X = rng.standard_normal((samples, 2, n, n))
    X = X[:, 0] + 1j * X[:, 1]
    H = X + X.conj().swapaxes(1, 2)
    lam = np.linalg.eigvalsh(H)
    lo, hi = lam[:, :1, None], lam[:, -1:, None]
    flat = hi - lo < 1e-12
    eye = np.eye(n)
    ops = np.where(flat, 0.5 * eye, (H - lo * eye) / np.where(flat, 1.0, hi - lo))
    return tuple(x if Q is None else Q.conj().T @ x @ Q for x in (A, B, ops))


def audit_semigroup(ts, n: int, basis, samples: int = 100, seed=7) -> list:
    """The rows of ``audit_semigroup`` by one pass over the whole stacks of
    :func:`audit_samples` for each time, every sample taken into the
    eigenbasis with one temporary the size of the whole stack and its rows
    read there, every Markov sample diagonalized (the library checks the
    samples a block at a time and diagonalizes only those its bounds leave)."""
    Q, W = basis.eigenbasis[0], basis.symbol.on(MatrixCarrierBasis(n)).lam().reshape(n, n)
    A, B, interval_ops = audit_samples(n, samples, seed, Q)
    rows = []
    eye = np.eye(n)
    for t in ts:
        M = np.exp(-t * W)
        choi_min = float(np.linalg.eigvalsh(M)[0])
        if n >= 2:
            choi_min = min(choi_min, 0.0)
        sym = np.abs(np.einsum("kij,kji->k", M * A, B)
                     - np.einsum("kij,kji->k", A, M * B)).max() / n
        heat_eye = M * eye if Q is None else Q @ (M * (Q.conj().T @ eye @ Q)) @ Q.conj().T
        lam = np.linalg.eigvalsh(M * interval_ops)
        rows.append({"t": t, "choi_min_eigenvalue": choi_min, "symmetry_error": float(sym),
                     "conservativity_error": float(np.abs(heat_eye - eye).max()),
                     "markov_min": float(lam[:, 0].min()), "markov_max": float(lam[:, -1].max())})
    return rows


def audit_semigroup_back_rotated(ts, n: int, basis, samples: int = 100, seed=7) -> list:
    """The rows of :func:`audit_semigroup` with every heat taken back out of
    the eigenbasis, Phi_t(m) = Q (M o Q^* m Q) Q^*, and the Markov samples
    symmetrized there before eigvalsh: the same rows within rounding."""
    Q, W = basis.eigenbasis[0], basis.symbol.on(MatrixCarrierBasis(n)).lam().reshape(n, n)

    def schur_heat(M, m):
        if Q is None:
            return M * m
        Qh = Q.conj().T
        return Q @ (M * (Qh @ m @ Q)) @ Qh

    A, B, interval_ops = audit_samples(n, samples, seed)
    rows = []
    eye = np.eye(n)
    for t in ts:
        M = np.exp(-t * W)
        choi_min = float(np.linalg.eigvalsh(M)[0])
        if n >= 2:
            choi_min = min(choi_min, 0.0)
        sym = np.abs(np.einsum("kij,kji->k", schur_heat(M, A), B)
                     - np.einsum("kij,kji->k", A, schur_heat(M, B))).max() / n
        cons = float(np.abs(schur_heat(M, eye) - eye).max())
        F = schur_heat(M, interval_ops)
        lam = np.linalg.eigvalsh(0.5 * (F + F.conj().swapaxes(1, 2)))
        rows.append({"t": t, "choi_min_eigenvalue": choi_min, "symmetry_error": float(sym),
                     "conservativity_error": cons, "markov_min": float(lam[:, 0].min()),
                     "markov_max": float(lam[:, -1].max())})
    return rows


def delta_inputs(samples: int) -> list:
    """(label, forms) per carrier, drawn as ``check_delta_squared`` drew them
    inline: one fresh ``default_carriers()``, a ``default_rng(5)`` per carrier."""
    out = []
    for label, basis, sample in default_carriers():
        rng = np.random.default_rng(5)
        alphas = []
        for i in range(samples):
            if i % 2 == 0:
                alpha = DifferentialForm.from_element(basis, sample())
            else:
                alpha = random_form(basis, lambda _: sample(), rng)
            alphas.append(alpha)
        out.append((label, alphas))
    return out


def leibniz_inputs(samples: int) -> list:
    """(label, form pairs) per complex-mode carrier, drawn as ``check_leibniz``
    drew them inline, with a ``default_rng(9)`` per carrier."""
    out = []
    for label, basis, sample in default_carriers():
        if basis.mode != "complex":
            continue
        rng = np.random.default_rng(9)
        pairs = []
        for _ in range(samples):
            alpha = random_form(basis, lambda _: sample(), rng, max_terms=1)
            beta = random_form(basis, lambda _: sample(), rng, max_terms=1)
            pairs.append((alpha, beta))
        out.append((label, pairs))
    return out


def carre_inputs():
    """The torus basis {U} and element pairs of the selftest's carre du champ
    check, drawn as ``run_selftest`` drew them inline from ``default_rng(3)``."""
    torus = torus_spec(0.7)
    rng = np.random.default_rng(3)
    basis = DifferentialBasis([QElement.generator(torus, 1)], label="torus {U}")
    pairs = []
    for _ in range(25):
        a = random_qelement(torus, rng)
        c = random_qelement(torus, rng)
        pairs.append((a, c))
    return basis, pairs


# -- round-trip oracles of the JSON and text readers ---------------------------

def element_from_json(spec: QAlgebraSpec, items: Iterable[Mapping]) -> QElement:
    terms: dict = {}
    for it in items:
        e = _exponents(it["exponents"])
        terms[e] = terms.get(e, 0j) + complex(it["re"], it["im"])
    return QElement(spec, terms)


def to_text(node) -> str:
    """Render an AST back to parseable text (parenthesized where needed)."""
    if isinstance(node, Num):
        v = node.value
        if v.imag == 0:
            return repr(v.real)
        if v.real == 0:
            return "i" if v.imag == 1 else f"{v.imag!r}i"
        return f"({v.real!r} + {v.imag!r}i)"
    if isinstance(node, Gen):
        return node.name
    if isinstance(node, Adj):
        return f"{_atomized(node.arg)}'"
    if isinstance(node, Pow):
        return f"{_atomized(node.arg)}^{node.exponent}"
    if isinstance(node, Neg):
        return f"-{_atomized(node.arg)}"
    if isinstance(node, Mul):
        return f"{_atomized(node.left)} * {_atomized(node.right)}"
    if isinstance(node, Add):
        return f"({to_text(node.left)} + {to_text(node.right)})"
    if isinstance(node, Sub):
        return f"({to_text(node.left)} - {to_text(node.right)})"
    if isinstance(node, Wedge):
        return f"{_atomized(node.left)} /\\ {_atomized(node.right)}"
    if isinstance(node, Comm):
        return f"[{to_text(node.left)}, {to_text(node.right)}]"
    if isinstance(node, Delta):
        return f"delta({to_text(node.arg)})"
    if isinstance(node, ThetaHat):
        return f"theta_hat({node.s!r}, {node.t!r}, {to_text(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def _atomized(node) -> str:
    # Add/Sub self-parenthesize in to_text; the listed atoms never need parens
    text = to_text(node)
    if isinstance(node, (Num, Gen, Comm, Delta, ThetaHat, Add, Sub)):
        return text
    return f"({text})"


# -- operands and comparisons of the route tests ------------------------------

def q_element(spec, rng, max_exp: int, n_terms: int) -> QElement:
    """Element with exactly ``n_terms`` monomials, exponents in [-max_exp, max_exp];
    ValueError, before any draw, when the box holds fewer exponents."""
    m = spec.generator_count
    if n_terms > (2 * max_exp + 1) ** m:
        raise ValueError(f"{n_terms} terms do not fit in [-{max_exp}, {max_exp}]^{m}")
    terms = {}
    while len(terms) < n_terms:
        e = tuple(rng.integers(-max_exp, max_exp + 1, m).tolist())
        terms[e] = complex(*rng.standard_normal(2))
    return QElement(spec, terms)


def box_for(spec, n_terms: int) -> int:
    """Largest exponent K whose box [-K, K]^m holds about twice ``n_terms``
    exponents, so that two random operands share many of them."""
    return max(1, math.ceil(((2 * n_terms) ** (1 / spec.generator_count) - 1) / 2))


def graph_operand(graph, rng, n: int, max_len: int = 4) -> GraphElement:
    """Every vertex-only term, then distinct random term keys: n terms, or
    every key of length at most ``max_len`` when there are fewer."""
    pairs = common_range_pairs(graph, max_len)
    vertex_only = [i for i, (mu, nu) in enumerate(pairs) if not mu.edges and not nu.edges]
    rest = [i for i in range(len(pairs)) if i not in vertex_only]
    n = min(n, len(pairs))
    idx = vertex_only[:n] + list(rng.choice(rest, n - len(vertex_only[:n]), replace=False))
    coeffs = rng.standard_normal((n, 2))
    return GraphElement(graph, {pairs[i]: complex(*c) for i, c in zip(idx, coeffs)})


def wide_operand(graph, rng, n: int, max_len: int) -> GraphElement:
    """n terms (mu, nu) of random words of length 0..max_len in the edges
    e61-e63 of a one-vertex graph with vertex o."""
    o = graph.vertex_path("o")
    terms = {}
    while len(terms) < n:
        mu, nu = (graph.path([f"e{e}" for e in rng.integers(61, 64, k)]) if k else o
                  for k in rng.integers(0, max_len + 1, 2))
        terms[(mu, nu)] = complex(*rng.standard_normal(2))
    return GraphElement(graph, terms)


def dict_only(x):
    """A copy of the term element x held as a dict only."""
    return x._like(x.terms)


def held(x):
    """A copy of the term element x held as arrays only, as the array routes
    return elements; x itself is left as it is."""
    return x._held(*dict_only(x)._arrays())


def route_cases(a, b) -> list:
    """(a, b) held as arrays, as dicts, and mixed."""
    return [(held(a), held(b)), (dict_only(a), dict_only(b)),
            (held(a), dict_only(b)), (dict_only(a), held(b))]


_KEY_PARTS = {QElement: int, GraphElement: Path}


def assert_python_terms(x):
    """Keys of Python ints (an exponent row) or Paths (mu, nu) with one
    range, and Python complex coefficients, however x holds its terms."""
    part = _KEY_PARTS[type(x)]
    for key, c in x.terms.items():
        assert type(key) is tuple and all(type(v) is part for v in key), key
        assert part is int or key[0].range == key[1].range, key
        assert type(c) is complex, (key, type(c))


def assert_same_terms(got, want):
    """Equal keys and exactly equal coefficients, zero signs included; a nan
    stands where the oracle has one."""
    assert_python_terms(got)
    assert set(got.terms) == set(want.terms)
    for k, c in want.terms.items():
        g = got.terms[k]
        assert (g == c and math.copysign(1, g.real) == math.copysign(1, c.real)
                and math.copysign(1, g.imag) == math.copysign(1, c.imag)
                or cmath.isnan(c) and cmath.isnan(g)), (k, g, c)


def assert_close_terms(got, want, tol: float = 1e-13, low: float = 1.0,
                       high: float = math.inf):
    """Equal keys and each coefficient within ``tol`` min(high, max(low, |c|))
    of the oracle's c: by default relative above modulus 1 and absolute below
    it.  A nan stands where the oracle has one."""
    assert_python_terms(got)
    assert set(got.terms) == set(want.terms)
    for k, c in want.terms.items():
        g = got.terms[k]
        if cmath.isnan(c):
            assert cmath.isnan(g), k
        else:
            assert abs(g - c) <= tol * min(high, max(low, abs(c))), (k, g, c)
