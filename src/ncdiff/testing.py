"""Random element generators and the condensed invariant battery.

Used by the test suite and by the ``selftest`` command; everything is
seeded and deterministic.
"""

from __future__ import annotations

import numpy as np

from . import dirichlet, forms, graph_algebra as ga
from .forms import DifferentialBasis, DifferentialForm
from .matrix_algebra import MatElement, projection_basis
from .qlattice import QAlgebraSpec, QElement, _pair_product, heisenberg_spec, torus_spec


def random_qelement(spec: QAlgebraSpec, rng, max_exp: int = 3,
                    n_terms: int = 4) -> QElement:
    m = spec.generator_count
    terms = {}
    for _ in range(n_terms):
        e = tuple(int(x) for x in rng.integers(-max_exp, max_exp + 1, size=m))
        terms[e] = complex(rng.standard_normal(), rng.standard_normal())
    return QElement(spec, terms)


def loop_product(a: QElement, b: QElement) -> QElement:
    """``a * b`` by the pair loop at any size: the oracle of the array route."""
    return a._like(_pair_product(a.spec, a.terms, b.terms))


def random_matelement(n: int, rng) -> MatElement:
    return MatElement(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_graph_element(graph, rng, max_len: int = 2, n_terms: int = 3):
    pairs = ga.common_range_pairs(graph, max_len)
    terms = {}
    for _ in range(n_terms):
        mu, nu = pairs[int(rng.integers(len(pairs)))]
        terms[(mu, nu)] = complex(rng.standard_normal(), rng.standard_normal())
    return ga.GraphElement(graph, terms)


def random_form(basis: DifferentialBasis, coeff_factory, rng,
                max_terms: int = 3) -> DifferentialForm:
    """Random form with homogeneous-degree-agnostic index support."""
    n = basis.size
    table = {}
    for _ in range(max_terms):
        p = int(rng.integers(0, n + 1))
        I = tuple(sorted(rng.choice(n, size=p, replace=False))) if p else ()
        if basis.mode == "complex":
            q = int(rng.integers(0, n + 1))
            J = tuple(sorted(rng.choice(n, size=q, replace=False))) if q else ()
        else:
            J = ()
        table[(I, J)] = coeff_factory(rng)
    return DifferentialForm(basis, table)


def star_tree(n: int) -> ga.DirectedGraph:
    """n-1 leaves each pointing at a common root; a tree with one sink."""
    vertices = ["root"] + [f"v{i}" for i in range(1, n)]
    edges = {f"e{i}": (f"v{i}", "root") for i in range(1, n)}
    return ga.DirectedGraph(vertices, edges)


def line_graph(n_edges: int) -> ga.DirectedGraph:
    vertices = [f"v{i}" for i in range(n_edges + 1)]
    edges = {f"e{i}": (f"v{i}", f"v{i + 1}") for i in range(n_edges)}
    return ga.DirectedGraph(vertices, edges)


def loop_graph(n: int = 1) -> ga.DirectedGraph:
    """Simple n-cycle with no exits."""
    vertices = [f"c{i}" for i in range(n)]
    edges = {f"l{i}": (f"c{i}", f"c{(i + 1) % n}") for i in range(n)}
    return ga.DirectedGraph(vertices, edges)


def default_carriers(seed: int = 11):
    """One (label, basis, sampler) triple per carrier family."""
    rng = np.random.default_rng(seed)

    m4 = projection_basis(4)
    basis_m4 = DifferentialBasis(m4, mode="selfadjoint", label="M_4 projections")

    torus = torus_spec(0.7)
    basis_torus = DifferentialBasis([QElement.generator(torus, 1)],
                                    label="torus {U}")

    heis = heisenberg_spec(0.11, 0.07, hbar=1.0, c=1.0)
    basis_heis = DifferentialBasis([QElement.generator(heis, 3)],
                                   label="heisenberg {W}")

    tree = star_tree(5)
    basis_tree = DifferentialBasis([ga.vertex_projection(tree, v) for v in tree.vertices],
                                   mode="selfadjoint", label="tree {p_v}")

    loop = loop_graph(3)
    basis_loop = DifferentialBasis([ga.vertex_projection(loop, v) for v in loop.vertices],
                                   mode="selfadjoint", label="loop {p_v}")

    return [
        ("matrix M_4", basis_m4, lambda: random_matelement(4, rng)),
        ("torus", basis_torus, lambda: random_qelement(torus, rng, max_exp=6)),
        ("heisenberg", basis_heis, lambda: random_qelement(heis, rng, max_exp=3)),
        ("graph tree", basis_tree, lambda: random_graph_element(tree, rng)),
        ("graph loop", basis_loop, lambda: random_graph_element(loop, rng)),
    ]


def check_delta_squared(samples: int = 50, tol: float = 1e-10) -> list[tuple[str, float]]:
    """Max |delta(delta(a))| per carrier over random 0-forms and forms."""
    out = []
    for label, basis, sample in default_carriers():
        rng = np.random.default_rng(5)
        worst = 0.0
        for i in range(samples):
            if i % 2 == 0:
                alpha = DifferentialForm.from_element(basis, sample())
            else:
                alpha = random_form(basis, lambda _: sample(), rng)
            worst = max(worst, forms.delta(forms.delta(alpha)).norm())
        out.append((label, worst))
    return out


def check_leibniz(samples: int = 30) -> list[tuple[str, float]]:
    """Graded product-rule defect per complex-mode carrier."""
    out = []
    for label, basis, sample in default_carriers():
        if basis.mode != "complex":
            continue
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(samples):
            alpha = random_form(basis, lambda _: sample(), rng, max_terms=1)
            beta = random_form(basis, lambda _: sample(), rng, max_terms=1)
            if not alpha.terms:
                continue
            r = alpha.total_degree()
            lhs = forms.delta(forms.wedge(alpha, beta))
            rhs = forms.wedge(forms.delta(alpha), beta) \
                + forms.wedge(alpha, forms.delta(beta)).scale((-1) ** r)
            worst = max(worst, (lhs - rhs).norm())
        out.append((label, worst))
    return out


def check_semigroup_audit(t: float = 1.0, n: int = 3):
    basis = DifferentialBasis(projection_basis(n), mode="selfadjoint",
                              label=f"M_{n} projections")
    return dirichlet.audit_semigroup([t], n, basis, samples=25).results[0]


def run_selftest(out=print) -> bool:
    """Condensed invariant battery; returns True when everything passes."""
    ok = True

    for label, worst in check_delta_squared():
        good = worst <= 1e-10
        ok &= good
        out(f"delta^2 = 0 [{label}]: max residual {worst:.3e} "
            f"{'PASS' if good else 'FAIL'}")

    for label, worst in check_leibniz():
        good = worst <= 1e-10
        ok &= good
        out(f"graded Leibniz [{label}]: max defect {worst:.3e} "
            f"{'PASS' if good else 'FAIL'}")

    row = check_semigroup_audit()
    good = (row["choi_min_eigenvalue"] >= -1e-10
            and row["symmetry_error"] <= 1e-10
            and row["conservativity_error"] == 0.0
            and row["markov_min"] >= -1e-10 and row["markov_max"] <= 1 + 1e-10)
    ok &= good
    out(f"semigroup audit [M_3, t=1]: choi_min {row['choi_min_eigenvalue']:.3e}, "
        f"symmetry {row['symmetry_error']:.3e}, conservativity "
        f"{row['conservativity_error']:.3e} {'PASS' if good else 'FAIL'}")

    torus = torus_spec(0.7)
    rng = np.random.default_rng(3)
    basis = DifferentialBasis([QElement.generator(torus, 1)], label="torus {U}")
    worst = 0.0
    for _ in range(25):
        a = random_qelement(torus, rng)
        c = random_qelement(torus, rng)
        lhs = dirichlet.carre_du_champ(a, c, basis)
        rhs = dirichlet.carre_du_champ_first_order(a, c, basis)
        worst = max(worst, (lhs - rhs).norm())
    good = worst <= 1e-10
    ok &= good
    out(f"carre du champ identity [torus]: max defect {worst:.3e} "
        f"{'PASS' if good else 'FAIL'}")

    from .deformation import heisenberg_limit_sweep
    sweep = heisenberg_limit_sweep("W", (2, 1, 0), [1e-2, 5e-3, 2.5e-3, 1.25e-3],
                                   mu=0.11, nu=0.07)
    good = abs(sweep.fitted_order - 1.0) <= 0.1
    ok &= good
    out(f"deformation order [heisenberg W]: fitted {sweep.fitted_order:.3f} "
        f"{'PASS' if good else 'FAIL'}")

    return ok
