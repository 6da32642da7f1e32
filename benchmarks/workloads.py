"""The four workloads: their inputs, their job lists and their checks.

A workload is a list of slots.  Each slot holds one or more variants (a key
plus a factory that builds the job's inputs) of the same size; the seed
picks one variant per slot and the coefficients of every seeded element.
The supports of those elements (exponents, paths, form degrees) and the
term counts come from the fixed ``SUPPORT_SEED``, so every seed gives the
same amount of work.
Every variant whose output is frozen has an entry in ``reference.json``,
written by ``freeze_reference.py`` from the ncdiff sources the benchmark
was defined against.

A job is one CLI command through ``ncdiff.cli.main`` or one library call.
It fails when it raises, exits non-zero, or returns output that differs
from its reference.  Identity and bound checks on library outputs run on
the first output of each job; later passes must reproduce that output.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

MODULES = ("qlattice", "matrix_algebra", "graph_algebra", "forms", "dirichlet",
           "cohomology", "deformation", "expr", "cli", "testing")

# Tolerances pinned by tests/test_acceptance.py and the selftest battery.
IDENTITY_TOL = 1e-10
AUDIT_TOL = 1e-10
# Relative tolerance on numbers printed by the CLI, against the frozen text.
TEXT_TOL = 1e-9
# Later passes must reproduce the first, verified output within this.
REPEAT_TOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Seeds the supports and degrees of seeded elements, which fix the work a
# job does; --seed only picks variants and coefficients.
SUPPORT_SEED = 0


def load_ncdiff():
    """Import ncdiff and the modules the workloads call."""
    importlib.import_module("ncdiff")
    mods = SimpleNamespace(np=np)
    for name in MODULES:
        setattr(mods, name, importlib.import_module(f"ncdiff.{name}"))
    return mods


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


@dataclass
class Job:
    key: str
    run: Callable[[], object]
    check: Callable[[object], list]
    frozen: Callable[[object], object] | None = None


# -- output comparison -----------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def text_matches(got: str, want: str, tol: float = TEXT_TOL) -> bool:
    """Same text, with every number equal within ``tol`` relative."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    return all(abs(float(a) - float(b)) <= tol * (1.0 + abs(float(b)))
               for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)))


def frozen_matches(got, want) -> bool:
    if isinstance(want, str):
        return isinstance(got, str) and text_matches(got, want)
    return got == want


class FirstVerified:
    """Check closure: deep checks on the first output, repeat checks after."""

    def __init__(self, deep: Callable[[object], list], same: Callable[[object, object], bool]):
        self.deep = deep
        self.same = same
        self.first = None

    def __call__(self, out) -> list:
        if self.first is None:
            problems = self.deep(out)
            if not problems:
                self.first = out
            return problems
        return [] if self.same(out, self.first) else ["output differs from the first pass"]


def _no_check(out) -> list:
    return []


def _elements_close(a, b) -> bool:
    return (a - b).norm() <= REPEAT_TOL * max(1.0, b.norm())


def _audit_problems(rows, exact_conservative: bool) -> list:
    """The selftest bounds on heat-channel audit rows."""
    problems = []
    for r in rows:
        cons_ok = (r["conservativity_error"] == 0.0 if exact_conservative
                   else r["conservativity_error"] <= AUDIT_TOL)
        if not (r["choi_min_eigenvalue"] >= -AUDIT_TOL and r["symmetry_error"] <= AUDIT_TOL
                and cons_ok and r["markov_min"] >= -AUDIT_TOL
                and r["markov_max"] <= 1 + AUDIT_TOL):
            problems.append(f"audit row out of bounds: {r}")
    return problems


# -- jobs ----------------------------------------------------------------------

def cli_job(mods, key: str, argv: list, check=_no_check) -> Job:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = mods.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
        return CliResult(rc, out.getvalue(), err.getvalue())
    return Job(key, run, check, frozen=lambda r: r.stdout)


def _dims_job(key: str, run) -> Job:
    return Job(key, run, _no_check, frozen=lambda report: report.to_json()["degrees"])


def _matrix_closed_form(n: int):
    """Check: projection-basis de Rham dimensions of M_n are n * C(n, k)."""
    def check(result: CliResult) -> list:
        rows = json.loads(result.stdout)["degrees"]
        bad = [row for row in rows if row["h_dim"] != n * math.comb(n, row["k"])]
        return [f"h_dim differs from n*C(n,k): {bad}"] if bad else []
    return check


# -- cohomology --------------------------------------------------------------------

TORUS_THETAS = (0.7, 0.9, 1.3, 2.1)
HEIS_PARAMS = ((0.11, 0.07), (0.13, 0.05), (0.17, 0.03))
CLOCK_ORDERS = (3, 4)
CLOCK_NUMERATORS = ((1, 1), (1, 3), (2, 1), (2, 3))


def clock_shift_basis(mods, numerators):
    """Clock/shift image of torus_spec_2n with rational angles; basis {U_1, U_3}.

    Each generator pair (U_{2j-1}, U_{2j}) maps to the clock and shift of
    its own q_j x q_j block, so the images live in M_{q_1 q_2}.
    """
    ql, ma = mods.qlattice, mods.matrix_algebra
    (q1, q2), (a1, a2) = CLOCK_ORDERS, numerators
    spec = ql.torus_spec_2n([2 * math.pi * a1 / q1, 2 * math.pi * a2 / q2])
    clocks = []
    for q, a in ((q1, a1), (q2, a2)):
        pair = ql.torus_spec(2 * math.pi * a / q)
        clocks.append(ql.clock_shift_rep(pair, ql.QElement.generator(pair, 1)).mat)
    u1 = ma.MatElement(np.kron(clocks[0], np.eye(q2)))
    u3 = ma.MatElement(np.kron(np.eye(q1), clocks[1]))
    return mods.forms.DifferentialBasis([u1, u3], label=f"{spec.label} clock {{U1,U3}}")


MATRIX_N = 6


def cohomology_slots(mods):
    def cli(argv, check=_no_check):
        return lambda: cli_job(mods, " ".join(argv), argv, check)

    def dolbeault(nums):
        key = f"dolbeault_dims p=1 torus2n clock {CLOCK_ORDERS} numerators {nums}"

        def make():
            basis = clock_shift_basis(mods, nums)
            carrier = mods.cohomology.MatrixCarrierBasis(CLOCK_ORDERS[0] * CLOCK_ORDERS[1])
            return _dims_job(key, lambda: mods.cohomology.dolbeault_dims(1, basis, carrier))
        return key, make

    def star_tree():
        tree = mods.testing.star_tree(5)
        basis = mods.forms.DifferentialBasis(
            [mods.graph_algebra.vertex_projection(tree, v) for v in tree.vertices],
            mode="selfadjoint", label="star5 {p_v}")
        carrier = mods.cohomology.GraphCarrierBasis(tree, 2)
        return _dims_job("deRham_dims star5 graph terms len<=2",
                         lambda: mods.cohomology.deRham_dims(basis, carrier))

    matrix = ["cohomology", "--carrier", "matrix", "--n", str(MATRIX_N)]
    torus = [["cohomology", "--carrier", "torus", "--theta", repr(t), "--trunc", "12"]
             for t in TORUS_THETAS]
    heis = [["cohomology", "--carrier", "heisenberg", "--mu", repr(mu), "--nu", repr(nu),
             "--trunc", "4"] for mu, nu in HEIS_PARAMS]
    return [
        [(" ".join(matrix), cli(matrix, _matrix_closed_form(MATRIX_N)))],
        [(" ".join(a), cli(a)) for a in torus],
        [(" ".join(a), cli(a)) for a in heis],
        [dolbeault(nums) for nums in CLOCK_NUMERATORS],
        [("deRham_dims star5 graph terms len<=2", star_tree)],
    ]


# -- heat ------------------------------------------------------------------------

HEAT_TIMES = ("0.1", "1", "10")
SEMIGROUP_N = 16
AUDIT_N = 20
HEAT_TERMS = 1300


def heat_slots(mods, rng, support):
    dr, ql = mods.dirichlet, mods.qlattice

    def semigroup(t):
        argv = ["semigroup", "--n", str(SEMIGROUP_N), "--t", t, "--samples", "100"]

        def check(r: CliResult) -> list:
            return _audit_problems(json.loads(r.stdout)["results"], exact_conservative=True)
        return " ".join(argv), lambda: cli_job(mods, " ".join(argv), argv, check)

    # seed-rotated commuting unitaries U_j = Q diag(exp(i phi_j)) Q^*, with prefactors
    x = rng.standard_normal((AUDIT_N, AUDIT_N)) + 1j * rng.standard_normal((AUDIT_N, AUDIT_N))
    q, _ = np.linalg.qr(x)
    phases = rng.uniform(0.0, 2 * math.pi, size=(2, AUDIT_N))
    prefactors = [complex(rng.uniform(0.5, 1.5)), complex(0.0, rng.uniform(0.5, 1.5))]
    heis_exps = support.choice(11 ** 3, size=HEAT_TERMS, replace=False)
    heis_coeffs = rng.standard_normal((HEAT_TERMS, 2))

    def audit(t):
        key = f"audit_semigroup n={AUDIT_N} rotated commuting unitaries t={t}"

        def make():
            mats = [mods.matrix_algebra.MatElement(q @ np.diag(np.exp(1j * ph)) @ q.conj().T)
                    for ph in phases]
            basis = mods.forms.DifferentialBasis(mats, prefactors=prefactors,
                                                 label="rotated commuting unitaries")

            def check(a) -> list:
                return _audit_problems(a.results, exact_conservative=False)
            return Job(key, lambda: dr.audit_semigroup([float(t)], AUDIT_N, basis,
                                                      samples=100), check)
        return key, make

    def heat_q(t):
        key = f"heat_semigroup heisenberg {HEAT_TERMS} terms basis {{W}} t={t}"

        def make():
            spec = ql.heisenberg_spec(0.11, 0.07)
            grid = list(itertools.product(range(-5, 6), repeat=3))
            a = ql.QElement(spec, {grid[i]: complex(*c) for i, c in zip(heis_exps, heis_coeffs)})
            basis = mods.forms.DifferentialBasis([ql.QElement.generator(spec, 3)],
                                                 label="heisenberg {W}")

            def deep(out) -> list:
                # oracle: Delta acts diagonally, read its eigenvalues off the
                # symbolic Laplacian instead of the exchange-angle formula
                lap = dr.laplacian(a, basis)
                worst = 0.0
                for e, c in a.terms.items():
                    lam = (lap.terms.get(e, 0j) / c).real
                    worst = max(worst, abs(out.terms.get(e, 0j) - c * math.exp(-float(t) * lam)))
                return [] if worst <= IDENTITY_TOL else [f"heat oracle defect {worst:.3e}"]
            return Job(key, lambda: dr.heat_semigroup(a, float(t), basis),
                       FirstVerified(deep, _elements_close))
        return key, make

    return ([[semigroup(t)] for t in HEAT_TIMES] + [[audit(t)] for t in HEAT_TIMES]
            + [[heat_q(t)] for t in HEAT_TIMES])


# -- symbolic ----------------------------------------------------------------------

def _random_q(mods, spec, support, rng, K: int, n_terms: int):
    """Element with ``n_terms`` exponents drawn by ``support``, coefficients by ``rng``."""
    grid = list(itertools.product(range(-K, K + 1), repeat=spec.generator_count))
    idx = support.choice(len(grid), size=n_terms, replace=False)
    coeffs = rng.standard_normal((n_terms, 2))
    return mods.qlattice.QElement(spec, {grid[i]: complex(*c) for i, c in zip(idx, coeffs)})


def _random_graph(mods, graph, support, rng, max_len: int, n_terms: int):
    by_range: dict = {}
    for p in graph.paths_up_to(max_len):
        by_range.setdefault(p.range, []).append(p)
    pairs = [(mu, nu) for group in by_range.values() for mu in group for nu in group]
    idx = support.choice(len(pairs), size=n_terms, replace=False)
    coeffs = rng.standard_normal((n_terms, 2))
    return mods.graph_algebra.GraphElement(graph, {pairs[i]: complex(*c)
                                                   for i, c in zip(idx, coeffs)})


def _product_job(key, x, y, z) -> Job:
    """x * y, checked once for associativity against z and (xy)* = y* x*."""
    def deep(xy) -> list:
        assoc = ((xy * z) - x * (y * z)).norm()
        adj = (xy.adjoint() - y.adjoint() * x.adjoint()).norm()
        if assoc <= IDENTITY_TOL and adj <= IDENTITY_TOL:
            return []
        return [f"{key}: associativity {assoc:.3e}, adjoint {adj:.3e}"]
    return Job(key, lambda: x * y, FirstVerified(deep, _elements_close))


def _zero_form_job(key, run) -> Job:
    def check(form) -> list:
        r = form.norm()
        return [] if r <= IDENTITY_TOL else [f"{key}: residual {r:.3e}"]
    return Job(key, run, check)


HEIS_PRODUCTS, HEIS_PRODUCT_TERMS = 4, 300
CARRE_PAIRS, CARRE_TERMS = 24, 60
GRAPH_PRODUCTS, GRAPH_TERMS = 48, 40


def symbolic_slots(mods, rng, support):
    ql, fm, dr, ga, tst = mods.qlattice, mods.forms, mods.dirichlet, \
        mods.graph_algebra, mods.testing
    heis = ql.heisenberg_spec(0.11, 0.07)
    torus = ql.torus_spec(0.7)
    jobs = []

    for i in range(HEIS_PRODUCTS):
        x, y = (_random_q(mods, heis, support, rng, 4, HEIS_PRODUCT_TERMS) for _ in range(2))
        z = _random_q(mods, heis, support, rng, 2, 1)
        jobs.append(_product_job(f"heisenberg product {i}", x, y, z))

    torus_basis = fm.DifferentialBasis([ql.QElement.generator(torus, 1)], label="torus {U}")
    for i in range(CARRE_PAIRS):
        a, c = (_random_q(mods, torus, support, rng, 6, CARRE_TERMS) for _ in range(2))

        def deep(out, a=a, c=c) -> list:
            d = (out - dr.carre_du_champ_first_order(a, c, torus_basis)).norm()
            return [] if d <= IDENTITY_TOL else [f"carre du champ defect {d:.3e}"]
        jobs.append(Job(f"carre du champ torus {i}",
                        lambda a=a, c=c: dr.carre_du_champ(a, c, torus_basis),
                        FirstVerified(deep, _elements_close)))

    heis_uv = fm.DifferentialBasis([ql.QElement.generator(heis, 1),
                                    ql.QElement.generator(heis, 2)], label="heisenberg {U,V}")
    m4 = fm.DifferentialBasis(mods.matrix_algebra.projection_basis(4), mode="selfadjoint",
                              label="M_4 projections")
    loop = tst.loop_graph(4)
    loop_basis = fm.DifferentialBasis([ga.vertex_projection(loop, v) for v in loop.vertices],
                                      mode="selfadjoint", label="4-cycle {p_v}")
    # random_form draws degrees and index sets from ``support`` and hands it
    # to these factories, which draw coefficients from ``rng``
    carriers = [
        ("heisenberg {U,V}", heis_uv, lambda s: _random_q(mods, heis, s, rng, 3, 20)),
        ("torus {U}", torus_basis, lambda s: _random_q(mods, torus, s, rng, 6, 20)),
        ("M_4", m4, lambda s: tst.random_matelement(4, rng)),
        ("4-cycle", loop_basis, lambda s: _random_graph(mods, loop, s, rng, 3, GRAPH_TERMS)),
    ]
    for label, basis, coeff in carriers * 4:
        alpha = tst.random_form(basis, coeff, support, max_terms=4)
        jobs.append(_zero_form_job(f"delta(delta) {label}",
                                   lambda a=alpha: fm.delta(fm.delta(a))))
    for label, basis, coeff in carriers[:2] * 8:
        alpha = tst.random_form(basis, coeff, support, max_terms=1)
        beta = tst.random_form(basis, coeff, support, max_terms=1)

        def leibniz(a=alpha, b=beta):
            r = a.total_degree()
            return fm.delta(fm.wedge(a, b)) - fm.wedge(fm.delta(a), b) \
                - fm.wedge(a, fm.delta(b)).scale((-1) ** r)
        jobs.append(_zero_form_job(f"graded Leibniz {label}", leibniz))

    for i in range(GRAPH_PRODUCTS):
        x, y = (_random_graph(mods, loop, support, rng, 3, GRAPH_TERMS) for _ in range(2))
        z = _random_graph(mods, loop, support, rng, 3, 3)
        jobs.append(_product_job(f"4-cycle product {i}", x, y, z))
    return [[(job.key, lambda job=job: job)] for job in jobs]


# -- interactive -------------------------------------------------------------------

# The client types the command list this many times per pass, each time
# with its own seeded variants.
INTERACTIVE_ROUNDS = 4
INTERACTIVE_THETAS = (0.7, 1.1, 1.9)
INTERACTIVE_HEIS = HEIS_PARAMS[:2]

TORUS_COMMANDS = (
    ["eval", "--spec", "{torus}", "--basis", "1", "[U, V]"],
    ["eval", "--spec", "{torus}", "U^3 * V^-2 * U'"],
    ["eval", "--spec", "{torus}", "--basis", "1", "delta(V^2 + U)"],
    ["eval", "--spec", "{torus}", "--basis", "1", "delta(U*V) /\\ delta(V')"],
    ["eval", "--spec", "{torus}", "theta_hat(0.3, 0.5, U + 2*V)"],
    ["eval", "--spec", "{torus}", "(U + V)^4"],
    ["eval", "--json", "--spec", "{torus}", "V' * U * V"],
    ["eval", "--spec", "{torus}", "--basis", "1", "delta(delta(V^3))"],
    ["cohomology", "--carrier", "torus", "--theta", "{theta}", "--trunc", "3"],
)
HEIS_COMMANDS = (
    ["eval", "--spec", "{heis}", "--basis", "3", "[W, U*V]"],
    ["eval", "--spec", "{heis}", "--basis", "3", "delta(U^2 * W')"],
    ["eval", "--spec", "{heis}", "(U + V + W)^3"],
    ["eval", "--json", "--spec", "{heis}", "[U, W] * V"],
    ["eval", "--spec", "{heis}", "--basis", "1,2", "delta(W) /\\ delta(W')"],
    ["eval", "--spec", "{heis}", "[V^2, W^-1] + 2*U"],
)
FIXED_COMMANDS = (
    ["graph", "--file", "{star}", "h0"],
    ["graph", "--file", "{star}", "criterion", "e1"],
    ["graph", "--file", "{line}", "criterion", "e0,e1"],
    ["graph", "--file", "{loop}", "h0"],
    ["graph", "--file", "{star}", "closed", "--max-len", "1"],
    ["deform", "torus", "--degrees", "1,3", "--summary"],
    ["deform", "heisenberg", "--direction", "W", "--exponents", "2,1,0", "--summary"],
    ["deform", "plane", "--summary"],
    ["semigroup", "--n", "3", "--t", "0.1,1,10", "--samples", "20"],
    ["semigroup", "--n", "4", "--t", "1", "--samples", "10", "--csv"],
    ["cohomology", "--carrier", "matrix", "--n", "2"],
    ["cohomology", "--carrier", "heisenberg", "--trunc", "2"],
    ["selftest"],
)


def write_interactive_files(mods, workdir: Path) -> dict:
    """Spec and graph files for every variant; returns placeholder -> file name."""
    ql, ga, tst = mods.qlattice, mods.graph_algebra, mods.testing
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for theta in INTERACTIVE_THETAS:
        files[f"torus-{theta}"] = json.dumps(ql.spec_to_json(ql.torus_spec(theta)))
    for mu, nu in INTERACTIVE_HEIS:
        files[f"heis-{mu}-{nu}"] = json.dumps(ql.spec_to_json(ql.heisenberg_spec(mu, nu)))
    files["star"] = ga.graph_to_text(tst.star_tree(5))
    files["loop"] = ga.graph_to_text(tst.loop_graph(3))
    files["line"] = ga.graph_to_text(tst.line_graph(3))
    names = {}
    for stem, text in files.items():
        name = stem + (".json" if stem.startswith(("torus", "heis")) else ".txt")
        (workdir / name).write_text(text)
        names[stem] = name
    return names


def _selftest_passed(r: CliResult) -> list:
    lines = r.stdout.splitlines()
    bad = [ln for ln in lines if not ln.endswith("PASS")]
    return [f"selftest lines failed: {bad}"] if bad or not lines else []


def _semigroup_bounds(r: CliResult) -> list:
    return _audit_problems(json.loads(r.stdout)["results"], exact_conservative=True)


def interactive_slots(mods, workdir: Path):
    names = write_interactive_files(mods, workdir)

    def command(template, **subst):
        argv = [a.format(**subst) if "{" in a else a for a in template]
        key = " ".join(argv)
        real = [str(workdir / a) if a in names.values() else a for a in argv]
        check = _no_check
        if argv[0] == "selftest":
            check = _selftest_passed
        elif argv[0] == "semigroup" and "--csv" not in argv:
            check = _semigroup_bounds
        return key, lambda: cli_job(mods, key, real, check)

    slots = [[command(t, torus=names[f"torus-{th}"], theta=repr(th)) for th in INTERACTIVE_THETAS]
             for t in TORUS_COMMANDS]
    slots += [[command(t, heis=names[f"heis-{mu}-{nu}"]) for mu, nu in INTERACTIVE_HEIS]
              for t in HEIS_COMMANDS]
    slots += [[command(t, star=names["star"], loop=names["loop"], line=names["line"])]
              for t in FIXED_COMMANDS]
    return slots


# -- assembly ----------------------------------------------------------------------

WORKLOADS = ("cohomology", "heat", "symbolic", "interactive")


def slots_for(name: str, mods, workdir: Path, rng):
    support = np.random.default_rng(SUPPORT_SEED)
    if name == "cohomology":
        return cohomology_slots(mods)
    if name == "heat":
        return heat_slots(mods, rng, support)
    if name == "symbolic":
        return symbolic_slots(mods, rng, support)
    if name == "interactive":
        return interactive_slots(mods, workdir)
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, seed: int, workdir: Path) -> tuple:
    """Import ncdiff and build the seeded job list of one workload."""
    mods = load_ncdiff()
    rng = np.random.default_rng(seed)
    slots = slots_for(name, mods, workdir, rng)
    picks = []
    for _ in range(INTERACTIVE_ROUNDS if name == "interactive" else 1):
        picks += [slot[int(rng.integers(len(slot)))] for slot in slots]
    jobs = [make() for _, make in picks]
    return mods, jobs


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
