"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math

import numpy as np

import ncdiff.cohomology as C
import ncdiff.deformation as DF
import ncdiff.dirichlet as D
import ncdiff.forms as F
import ncdiff.graph_algebra as G
from ncdiff.forms import DifferentialBasis, DifferentialForm
from ncdiff.matrix_algebra import projection_basis
from ncdiff.qlattice import (QElement, clock_shift_rep, heisenberg_spec, tau,
                             torus_spec)
from ncdiff.testing import (random_graph_element, random_matelement,
                            random_qelement, random_form)

from conftest import graph_corpus, loop_graph, star_tree

SAMPLES = 200
SEED = 424242


def _report(num: int, label: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {label} {detail}"


def _carriers():
    rng = np.random.default_rng(SEED)
    m4 = DifferentialBasis(projection_basis(4), mode="selfadjoint",
                           label="M_4 projections")
    torus = torus_spec(0.7)
    tb = DifferentialBasis([QElement.generator(torus, 1)], label="torus {U}")
    heis = heisenberg_spec(0.11, 0.07, hbar=1.0, c=1.0)
    hb = DifferentialBasis([QElement.generator(heis, 3)], label="heisenberg {W}")
    tree = star_tree(5)
    gb_tree = DifferentialBasis([G.vertex_projection(tree, v) for v in tree.vertices],
                                mode="selfadjoint", label="tree {p_v}")
    loop = loop_graph(3)
    gb_loop = DifferentialBasis([G.vertex_projection(loop, v) for v in loop.vertices],
                                mode="selfadjoint", label="loop {p_v}")
    return [
        ("M_4", m4, lambda: random_matelement(4, rng)),
        ("torus", tb, lambda: random_qelement(torus, rng, max_exp=6)),
        ("heisenberg", hb, lambda: random_qelement(heis, rng, max_exp=3)),
        ("tree", gb_tree, lambda: random_graph_element(tree, rng)),
        ("loop", gb_loop, lambda: random_graph_element(loop, rng)),
    ]


def test_c01_delta_squared_zero():
    rng = np.random.default_rng(SEED)
    worst_overall = 0.0
    for label, basis, sample in _carriers():
        worst = 0.0
        for i in range(SAMPLES):
            if i % 2 == 0:
                alpha = DifferentialForm.from_element(basis, sample())
            else:
                alpha = random_form(basis, lambda _: sample(), rng)
            worst = max(worst, F.delta(F.delta(alpha)).norm())
        worst_overall = max(worst_overall, worst)
        assert worst <= 1e-10, (label, worst)
    _report(1, "delta^2 = 0 on all carriers", worst_overall <= 1e-10,
            f"(max residual {worst_overall:.2e})")


def test_c02_leibniz_and_type_split():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for label, basis, sample in _carriers():
        if basis.mode != "complex":
            continue
        for _ in range(SAMPLES):
            alpha = random_form(basis, lambda _: sample(), rng, max_terms=1)
            beta = random_form(basis, lambda _: sample(), rng, max_terms=1)
            if alpha.terms:
                r = alpha.total_degree()
                lhs = F.delta(F.wedge(alpha, beta))
                rhs = F.wedge(F.delta(alpha), beta) \
                    + F.wedge(alpha, F.delta(beta)).scale((-1) ** r)
                worst = max(worst, (lhs - rhs).norm())
            gamma = random_form(basis, lambda _: sample(), rng)
            worst = max(worst, F.partial(F.partial(gamma)).norm())
            worst = max(worst, F.partial_star(F.partial_star(gamma)).norm())
            anti = F.partial(F.partial_star(gamma)) + F.partial_star(F.partial(gamma))
            worst = max(worst, anti.norm())
            split = F.partial(gamma) + F.partial_star(gamma) - F.delta(gamma)
            worst = max(worst, split.norm())
    _report(2, "graded Leibniz and partial-split relations", worst <= 1e-10,
            f"(max defect {worst:.2e})")


def test_c03_carre_du_champ_identity():
    rng = np.random.default_rng(SEED + 2)
    p3 = DifferentialBasis(projection_basis(3), mode="selfadjoint")
    torus = torus_spec(0.7)
    tb = DifferentialBasis([QElement.generator(torus, 1)])
    worst = 0.0
    for _ in range(100):
        a, c = random_matelement(3, rng), random_matelement(3, rng)
        worst = max(worst, (D.carre_du_champ(a, c, p3)
                            - D.carre_du_champ_first_order(a, c, p3)).norm())
    for _ in range(100):
        a = random_qelement(torus, rng, max_exp=6)
        c = random_qelement(torus, rng, max_exp=6)
        worst = max(worst, (D.carre_du_champ(a, c, tb)
                            - D.carre_du_champ_first_order(a, c, tb)).norm())
    _report(3, "carre du champ identity (M_3 and torus)", worst <= 1e-10,
            f"(max defect {worst:.2e})")


def test_c04_semigroup_audit():
    basis = DifferentialBasis(projection_basis(3), mode="selfadjoint",
                              label="M_3 projections")
    audit = D.audit_semigroup([0.1, 1.0, 10.0], 3, basis, samples=100, seed=SEED)
    ok = True
    for row in audit.results:
        ok &= row["choi_min_eigenvalue"] >= -1e-10
        ok &= row["symmetry_error"] <= 1e-10
        ok &= row["conservativity_error"] == 0.0
        ok &= row["markov_min"] >= -1e-10 and row["markov_max"] <= 1 + 1e-10
    trotter = D.trotter_check(1.0, 4096, 3, basis)
    ok &= trotter <= 1e-6
    _report(4, "semigroup audit (CP, symmetric, conservative, Markov, "
               "splitting)", ok, f"(trotter error {trotter:.2e})")


def test_c05_dirichlet_representation():
    rng = np.random.default_rng(SEED + 3)
    torus = torus_spec(0.7)
    tb = DifferentialBasis([QElement.generator(torus, 1)])
    p3 = DifferentialBasis(projection_basis(3), mode="selfadjoint")
    worst = 0.0
    for _ in range(100):
        a = random_qelement(torus, rng, max_exp=5)
        gs, ds = D.dirichlet_form(a, a, tb)
        worst = max(worst, abs(ds - 2 * gs))
    for _ in range(100):
        a = random_matelement(3, rng)
        gs, ds = D.dirichlet_form(a, a, p3)
        worst = max(worst, abs(ds - gs))
    _report(5, "Dirichlet-form representation factors (2x complex, 1x "
               "self-adjoint)", worst <= 1e-10, f"(max defect {worst:.2e})")


def test_c06_h0_matrix_dimensions():
    dims = {}
    for n in range(2, 7):
        basis = DifferentialBasis(projection_basis(n), mode="selfadjoint",
                                  label=f"M_{n}")
        report = C.deRham_dims(basis, C.MatrixCarrierBasis(n), max_degree=0)
        dims[n] = report.h(0)
    ok = all(dims[n] == n for n in range(2, 7))
    _report(6, "H^0(M_n) = n for n = 2..6", ok, f"({dims})")


def _vertex_commutator_cases_hold(g):
    basis = DifferentialBasis([G.vertex_projection(g, v) for v in g.vertices],
                              mode="selfadjoint", label="{p_v}")
    vidx = {v: i for i, v in enumerate(g.vertices)}
    for mu in g.paths_up_to(4):
        if len(mu) == 0:
            continue
        smu = G.path_isometry(g, mu)
        for v in g.vertices:
            got = G.vertex_commutator(v, smu)
            if mu.source == mu.range:
                want = G.GraphElement.zero(g)
            elif v == mu.source:
                want = smu
            elif v == mu.range:
                want = -smu
            else:
                want = G.GraphElement.zero(g)
            if (got - want).norm() > 0.0:
                return False
        d = F.delta(DifferentialForm.from_element(basis, smu))
        expect = {}
        if mu.source != mu.range:
            expect[((vidx[mu.source],), ())] = smu
            expect[((vidx[mu.range],), ())] = -smu
        if (d - DifferentialForm(basis, expect)).norm() > 0.0:
            return False
    return True


def test_c07_graph_combinatorics():
    corpus = graph_corpus()
    ok = all(_vertex_commutator_cases_hold(g) for g in corpus.values())

    # closedness <-> vanishing derivative
    for g in corpus.values():
        basis = DifferentialBasis([G.vertex_projection(g, v) for v in g.vertices],
                                  mode="selfadjoint")
        by_range = {}
        for p in g.paths_up_to(3):
            by_range.setdefault(p.range, []).append(p)
        for group in by_range.values():
            for mu in group:
                for nu in group:
                    x = G.GraphElement.term(g, mu, nu)
                    d = F.delta(DifferentialForm.from_element(basis, x))
                    ok &= (d.norm() == 0.0) == G.is_closed((mu, nu))

    # bounded completeness expansion on 20 criterion-true paths
    criterion_true = []
    for g in corpus.values():
        for mu in g.paths_up_to(6):
            if len(mu) >= 1 and G.full_isometry_criterion(g, mu):
                criterion_true.append((g, mu))
    ok &= len(criterion_true) >= 20
    for g, mu in criterion_true[:20]:
        ok &= G.expand_projection_check(g, mu)

    rep = G.h0_report(star_tree(5), 3)
    ok &= rep["projection_count"] == 5
    rep_loop = G.h0_report(loop_graph(1), 2)
    ok &= len(rep_loop["circle_flags"]) == 1
    from conftest import loop_with_exit
    ok &= G.h0_report(loop_with_exit(), 2)["circle_flags"] == []
    _report(7, "graph combinatorics (vertex commutators, closedness, "
               "projection collapse, circle flags)", ok)


def _membership_battery(theta, period):
    """(element, expected) pairs; ``period`` is the V-degree lattice of the
    commutant (None when only degree 0 survives)."""
    spec = torus_spec(theta)

    def member(l):
        return l == 0 if period is None else l % period == 0

    battery = []
    for k, l in itertools.product((-2, 0, 1, 3), (-2 * 14, -7, -3, 0, 2, 7, 14, 28)):
        battery.append((QElement.monomial(spec, (k, l)), member(l)))
    # multi-term elements: member exactly when every degree passes
    good_l = period or 0
    battery.append((QElement(spec, {(1, 0): 1.0, (0, good_l): 2.0}), True))
    battery.append((QElement(spec, {(1, 0): 1.0, (0, good_l + 1): 2.0}), False))
    return battery


def test_c08_commutant_membership_branches():
    checked = 0
    ok = True
    for theta, period in ((1.0, None), (math.pi * 3 / 7, 14), (math.pi * 2 / 7, 7)):
        for element, expected in _membership_battery(theta, period):
            got, witnesses = C.c00_membership(element)
            ok &= got == expected
            if not got:
                ok &= len(witnesses) > 0
            checked += 1
    ok &= checked >= 50
    _report(8, "commutant membership branches (generic, 2q, q)", ok,
            f"({checked} elements)")


def test_c09_clock_shift_oracle():
    rng = np.random.default_rng(SEED + 4)
    spec = torus_spec(2 * math.pi * 3 / 7)
    worst = 0.0
    for _ in range(100):
        a = random_qelement(spec, rng)
        b = random_qelement(spec, rng)
        lhs = clock_shift_rep(spec, a * b)
        rhs = clock_shift_rep(spec, a) * clock_shift_rep(spec, b)
        worst = max(worst, (lhs - rhs).norm())
    ok = worst <= 1e-10

    # commuting with the clock image iff commuting with its adjoint
    Cm = clock_shift_rep(spec, QElement.generator(spec, 1)).mat
    n = 7
    L1 = np.kron(Cm, np.eye(n)) - np.kron(np.eye(n), Cm.T)
    L2 = np.kron(Cm.conj().T, np.eye(n)) - np.kron(np.eye(n), Cm.conj())
    _, s1, vh1 = np.linalg.svd(L1)
    _, s2, _ = np.linalg.svd(L2)
    cut1 = max(L1.shape) * np.finfo(float).eps * s1[0]
    null_dim1 = int((s1 <= cut1).sum())
    null_dim2 = int((s2 <= max(L2.shape) * np.finfo(float).eps * s2[0]).sum())
    ok &= null_dim1 == null_dim2 == 7
    null_basis = vh1[-null_dim1:].conj().T
    for i in range(20):
        a = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        proj = null_basis @ (null_basis.conj().T @ a)
        ok &= np.abs(L1 @ proj).max() <= 1e-10
        ok &= np.abs(L2 @ proj).max() <= 1e-10  # commutes with the adjoint too
        ok &= (np.abs(L1 @ a).max() > 1e-6) == (np.abs(L2 @ a).max() > 1e-6)
    _report(9, "clock/shift oracle (homomorphism, adjoint-commutant "
               "coincidence)", ok, f"(max hom defect {worst:.2e})")


def test_c10_deformation_orders():
    params = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    sweeps = [
        DF.torus_limit_sweep({(1,): 1.0, (3,): 0.5, (5,): 0.25}, params),
        DF.torus_limit_sweep({(2, 1): 1.0, (0, 5): 0.5 - 0.25j}, params),
        DF.plane_limit_sweep((1, 0), {(0, 1): 1.0, (1, 3): 0.5, (2, 5): 0.25},
                             params),
        DF.plane_limit_sweep((2, 1), {(1, 3): 1.0, (4, 0): 1j}, params),
        DF.heisenberg_limit_sweep("W", (5, 3, 2), params, mu=0.11, nu=0.07),
        DF.heisenberg_limit_sweep("U", (2, 1, 4), params, mu=0.11, nu=0.07),
        DF.heisenberg_limit_sweep("V", (0, 5, 5), params, mu=0.11, nu=0.07),
    ]
    ok = True
    orders = []
    for sweep in sweeps:
        orders.append(round(sweep.fitted_order, 3))
        ok &= abs(sweep.fitted_order - 1.0) <= 0.1
        ok &= 0.45 <= sweep.halving_ratio() <= 0.55
    _report(10, "deformation sweeps first-order convergence", ok,
            f"(orders {orders})")


def test_c11_heisenberg_structure():
    spec = heisenberg_spec(0.11, 0.07, hbar=1.0, c=1.0)
    monos = [QElement.monomial(spec, e)
             for e in itertools.product(range(-4, 5), repeat=3)]
    adjoints = [x.adjoint() for x in monos]
    worst = 0.0
    for i, xa in enumerate(adjoints):
        for j, y in enumerate(monos):
            val = tau(xa * y)
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    ok = worst <= 1e-12

    two_pi_i = 2j * math.pi
    U = QElement.generator(spec, 1)
    V = QElement.generator(spec, 2)
    W = QElement.generator(spec, 3)
    d1u, d2u, d3u = DF.heisenberg_derivations(U, K=3)
    d1v, d2v, d3v = DF.heisenberg_derivations(V, K=3)
    d1w, d2w, d3w = DF.heisenberg_derivations(W, K=3)
    ok &= (d1u - U.scale(two_pi_i)).norm() == 0.0 and d2u.norm() == d3u.norm() == 0.0
    ok &= (d2v - V.scale(two_pi_i)).norm() == 0.0 and d1v.norm() == d3v.norm() == 0.0
    ok &= (d3w - W.scale(two_pi_i)).norm() == 0.0 and d2w.norm() == 0.0
    ok &= all(abs(d1w.terms[(0, l, 1)] - 1.0 / l) < 1e-15
              for l in (-3, -2, -1, 1, 2, 3))

    bracket_worst = 0.0
    for e in itertools.product((-2, -1, 0, 1, 2), repeat=3):
        x = QElement.monomial(spec, e)
        def d(i, z):
            return DF.heisenberg_derivations(z, K=3)[i]
        bracket_worst = max(bracket_worst,
                            (d(0, d(2, x)) - d(2, d(0, x))).norm(),
                            (d(1, d(2, x)) - d(2, d(1, x))).norm())
    ok &= bracket_worst <= 1e-12
    _report(11, "Heisenberg structure (orthonormal monomials, derivation "
                "actions, brackets)", ok,
            f"(orthonormality defect {worst:.2e}, bracket defect "
            f"{bracket_worst:.2e})")
