import ast
import cmath
import importlib.util
import itertools
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import ncdiff
import ncdiff.cli as cli
import ncdiff.expr as E
from ncdiff.cli import main
from ncdiff.forms import DifferentialBasis
from ncdiff.qlattice import QElement, spec_to_json

from conftest import THETA
from oracles import benchmark_workloads, element_from_json, to_text


@pytest.fixture
def ctx(torus):
    U = QElement.generator(torus, 1)
    return E.EvalContext(torus, DifferentialBasis([U], label="{U}"))


def test_parse_examples(ctx, torus):
    v = E.evaluate(E.parse("[U, V]"), ctx)
    assert abs(v.terms[(1, 1)] - (1 - cmath.exp(-1j * THETA))) < 1e-14
    v = E.evaluate(E.parse("U*U'"), ctx)
    assert (v - QElement.one(torus)).norm() == 0.0
    form = E.evaluate(E.parse("delta(V)"), ctx)
    assert set(form.terms) == {((0,), ()), ((), (0,))}
    assert E.evaluate(E.parse("delta(1)"), ctx).norm() == 0.0
    v = E.evaluate(E.parse("theta_hat(0.5, 0, U)"), ctx)
    assert abs(v.terms[(1, 0)] - cmath.exp(-0.5j)) < 1e-14
    v = E.evaluate(E.parse("U^-2"), ctx)
    assert set(v.terms) == {(-2, 0)}
    v = E.evaluate(E.parse("2 + 3i"), ctx)
    assert abs(v.terms[(0, 0)] - (2 + 3j)) < 1e-15


def test_parse_precedence(ctx):
    # adjoint > power > product > wedge > sum
    ast = E.parse("U^2'")
    assert ast == E.Adj(E.Pow(E.Gen("U"), 2))
    ast = E.parse("U * V + W")
    assert isinstance(ast, E.Add) and isinstance(ast.left, E.Mul)
    ast = E.parse("U /\\ V * W")
    assert isinstance(ast, E.Wedge) and isinstance(ast.right, E.Mul)


def test_syntax_errors():
    with pytest.raises(E.ExprSyntaxError) as err:
        E.parse("U + $")
    assert err.value.position == 4
    with pytest.raises(E.ExprSyntaxError):
        E.parse("delta(U")
    with pytest.raises(E.ExprSyntaxError):
        E.parse("[U V]")
    with pytest.raises(E.ExprSyntaxError):
        E.parse("U ^ V")


def test_eval_errors(ctx, torus):
    with pytest.raises(E.EvalError):
        E.evaluate(E.parse("U9"), ctx)
    with pytest.raises(E.EvalError):
        E.evaluate(E.parse("Q"), ctx)
    with pytest.raises(E.EvalError):
        E.evaluate(E.parse("delta(U) * delta(V)"), ctx)
    bare = E.EvalContext(torus, None)
    with pytest.raises(E.EvalError):
        E.evaluate(E.parse("delta(U)"), bare)
    with pytest.raises(E.EvalError):
        E.evaluate(E.parse("(U + V)^-1"), ctx)


def _random_ast(rng, depth=0):
    roll = rng.integers(0, 10 if depth < 4 else 3)
    if roll <= 1:
        value = round(abs(float(rng.standard_normal())), 3) + 0.125
        return E.Num(complex(value, 0.0) if roll == 0 else complex(0.0, value))
    if roll == 2:
        return E.Gen(str(rng.choice(["U", "V", "U1", "U2"])))
    if roll == 3:
        return E.Adj(_random_ast(rng, depth + 1))
    if roll == 4:
        return E.Pow(_random_ast(rng, depth + 1), int(rng.integers(-3, 4)))
    if roll == 5:
        return E.Neg(_random_ast(rng, depth + 1))
    if roll == 6:
        return E.Mul(_random_ast(rng, depth + 1), _random_ast(rng, depth + 1))
    if roll == 7:
        return E.Add(_random_ast(rng, depth + 1), _random_ast(rng, depth + 1))
    if roll == 8:
        return E.Comm(_random_ast(rng, depth + 1), _random_ast(rng, depth + 1))
    return E.Delta(_random_ast(rng, depth + 1))


def test_roundtrip_random_asts(rng):
    for _ in range(200):
        ast = _random_ast(rng)
        text = to_text(ast)
        assert E.parse(text) == ast, text


def test_format_element(torus):
    U = QElement.generator(torus, 1)
    V = QElement.generator(torus, 2)
    assert E.format_element(QElement.zero(torus)) == "0"
    assert E.format_element(QElement.one(torus)) == "1"
    text = E.format_element(U * V.adjoint().scale(2.0))
    assert "U" in text and "V^-1" in text


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def spec_file(tmp_path, torus):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(spec_to_json(torus)))
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    lines = ["# five-vertex star tree"]
    lines += [f"vertex v{i}" for i in range(1, 5)] + ["vertex root"]
    lines += [f"edge e{i} v{i} root" for i in range(1, 5)]
    path = tmp_path / "star5.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_cli_eval(spec_file):
    rc, out, _ = run_cli(["eval", "--spec", spec_file, "--basis", "1", "[U, V]"])
    assert rc == 0
    assert "U*V" in out
    rc, out, _ = run_cli(["eval", "--spec", spec_file, "--basis", "1", "delta(1)"])
    assert rc == 0 and out.strip() == "0"
    rc, out, _ = run_cli(["eval", "--spec", spec_file, "--json", "U*V"])
    items = json.loads(out)
    assert items == [{"exponents": [1, 1], "re": 1.0, "im": 0.0}]
    # large but finite: only a non-finite result is rejected
    rc, out, _ = run_cli(["eval", "--spec", spec_file, "1e300*U + 1e300*U"])
    assert rc == 0 and out == "2e+300*U\n"


def test_eval_json_emits_a_form_as_strict_json(spec_file, torus):
    argv = ["eval", "--spec", spec_file, "--basis", "1", "delta(V)"]
    rc, text, _ = run_cli(argv)
    assert rc == 0 and "dU1*" in text  # as format_form prints it
    rc, out, _ = run_cli(argv[:1] + ["--json"] + argv[1:])
    assert rc == 0
    d = json.loads(out, parse_constant=lambda c: pytest.fail(f"not strict JSON: {c}"))
    assert d["basis_ref"] == "generators 1"
    # 1-based I and J, terms sorted: dU1* then dU1, the covectors format_form names
    covectors = [[f"dU{i}" for i in t["I"]] + [f"dU{j}*" for j in t["J"]] for t in d["terms"]]
    assert covectors == [["dU1*"], ["dU1"]]
    assert all(c in text for c, in covectors)
    # each coefficient reads back as the evaluated form's
    basis = DifferentialBasis([QElement.generator(torus, 1)])
    alpha = E.evaluate(E.parse("delta(V)"), E.EvalContext(torus, basis))
    assert len(alpha.terms) == len(d["terms"])
    for t in d["terms"]:
        key = (tuple(i - 1 for i in t["I"]), tuple(j - 1 for j in t["J"]))
        assert element_from_json(torus, t["coefficient"]).terms == alpha.terms[key].terms
    # an element keeps the element shape
    rc, out, _ = run_cli(["eval", "--spec", spec_file, "--basis", "1", "--json", "[U, V]"])
    assert rc == 0 and isinstance(json.loads(out), list)


def test_cli_eval_bad_input(spec_file):
    rc, _, err = run_cli(["eval", "--spec", "/does/not/exist.json", "U"])
    assert rc == 2
    rc, _, err = run_cli(["eval", "--spec", spec_file, "U +"])
    assert rc == 2 and "error" in err


def test_cli_graph(star_file):
    rc, out, _ = run_cli(["graph", "--file", star_file, "h0"])
    assert rc == 0
    rep = json.loads(out)
    assert set(rep) == {"closed_terms", "projection_count", "circle_flags"}
    assert rep["projection_count"] == 5
    rc, out, _ = run_cli(["graph", "--file", star_file, "closed"])
    assert set(json.loads(out)) == {"closed_terms"}
    rc, out, _ = run_cli(["graph", "--file", star_file, "criterion", "e1"])
    rep = json.loads(out)
    assert rep["criterion"] is True and rep["verified"] is True
    rc, out, err = run_cli(["graph", "--file", star_file, "criterion"])
    assert rc == 2 and out == "" and err == "error: criterion needs a comma-separated edge path\n"


@pytest.mark.parametrize("argv, named", [
    (["deform", "heisenberg", "--exponents", "1,2"], "monomial (1, 2) has wrong arity for 3"),
    (["deform", "heisenberg", "--exponents", "1,2,3,4"], "(1, 2, 3, 4) has wrong arity for 3"),
    (["deform", "plane", "--k", "1"], "monomial (1,) has wrong arity for 2"),
    (["deform", "plane", "--k", "1,x"], "--k takes comma-separated ints, got 'x'"),
    (["deform", "plane", "--t", "0,1.5"], "--t takes comma-separated ints, got '1.5'"),
    (["deform", "torus", "--degrees", "1, y "], "--degrees takes comma-separated ints, got 'y'"),
    (["deform", "torus", "--params", "0.1,z"], "--params takes comma-separated floats, got 'z'"),
    (["semigroup", "--n", "3", "--t", "1,q"], "--t takes comma-separated floats, got 'q'"),
    (["eval", "--spec", "{spec}", "--basis", "1,two", "U"],
     "--basis takes comma-separated ints, got 'two'"),
], ids=["heisenberg-short-exponents", "heisenberg-long-exponents", "plane-short-k",
        "plane-k-item", "plane-t-item", "torus-degrees-item", "torus-params-item",
        "semigroup-t-item", "eval-basis-item"])
def test_cli_list_options_name_the_bad_item(spec_file, argv, named):
    rc, out, err = run_cli([spec_file if a == "{spec}" else a for a in argv])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_cli_semigroup():
    rc, out, _ = run_cli(["semigroup", "--n", "3", "--t", "0.1,1", "--samples", "10"])
    assert rc == 0
    rep = json.loads(out)
    assert set(rep) == {"n", "basis", "results"}
    assert len(rep["results"]) == 2
    row = rep["results"][0]
    assert set(row) == {"t", "choi_min_eigenvalue", "symmetry_error",
                        "conservativity_error", "markov_min", "markov_max"}
    assert row["choi_min_eigenvalue"] >= -1e-10
    rc, out, _ = run_cli(["semigroup", "--n", "3", "--t", "1", "--samples", "5",
                          "--csv"])
    assert out.splitlines()[0] == \
        "t,choi_min,symmetry_err,conservative_err,markov_min,markov_max"


def test_cli_deform():
    rc, out, _ = run_cli(["deform", "torus", "--degrees", "1,3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "parameter,error"
    assert len(lines) == 5
    rc, out, _ = run_cli(["deform", "heisenberg", "--direction", "W",
                          "--exponents", "1,0,0", "--summary"])
    rep = json.loads(out)
    assert set(rep) == {"fitted_order", "target_description"}
    assert abs(rep["fitted_order"] - 1.0) < 0.1
    rc, out, _ = run_cli(["deform", "plane", "--k", "1,0", "--t", "0,1",
                          "--summary"])
    assert abs(json.loads(out)["fitted_order"] - 1.0) < 0.1


EVAL_U = ["eval", "--spec", "{spec}", "U"]
EVAL_ZERO_TERM = ["eval", "--spec", "{spec}", "U*V - V*U + 0*U"]
SQUARE = [[0.0, 0.7], [-0.7, 0.0]]
# exchange angles overflow to inf, and their phases to nan
HUGE_THETA = {"theta_matrix": [[0.0, -1e308], [1e308, 0.0]]}
# 17 terms, so the square takes the array route of the q-lattice product
SEVENTEEN = "+".join(f"{g}^{k}" for k in range(1, 9) for g in "UV") + "+U^9"
# 401 digits: too large to convert to a float
HUGE = "9" * 401


@pytest.mark.parametrize("config, spec, argv", [
    (None, {"generators": 2, "label": "no relations"}, EVAL_U),
    ({"truncation": "x"}, None, EVAL_U),
    ({"tolerance": 1e-9}, None, EVAL_U),
    ({"normalized_trace": False}, None, EVAL_U),
    ([6], None, EVAL_U),
    ({"prune_epsilon": math.nan}, None, EVAL_ZERO_TERM),
    ({"prune_epsilon": -1}, None, EVAL_ZERO_TERM),
    ({"prune_epsilon": math.inf}, None, EVAL_ZERO_TERM),
    (None, {"theta_matrix": 5}, EVAL_U),
    (None, {"theta_matrix": {"rows": 2}}, EVAL_U),
    (None, {"theta_matrix": SQUARE, "meta": 3}, EVAL_U),
    (None, None, ["semigroup", "--n", "3", "--t", "1", "--samples", "0"]),
    (None, None, ["semigroup", "--n", "3", "--t", "inf"]),
    (None, None, ["semigroup", "--n", "3", "--t", "0.1,nan"]),
    (None, None, ["semigroup", "--n", "3", "--t", ","]),
    (None, None, ["cohomology", "--carrier", "matrix", "--n", "0"]),
    (None, None, ["cohomology", "--carrier", "torus", "--trunc", "0"]),
    (None, None, ["eval", "--spec", "{spec}", "0^-1"]),
    (None, None, ["eval", "--spec", "{spec}", "1e308^2"]),
    (None, None, ["eval", "--spec", "{spec}", "2*1e400"]),
    (None, None, ["eval", "--spec", "{spec}", "theta_hat(1e400, 0, U)"]),
    (None, None, ["eval", "--spec", "{spec}", "1e200*1e200"]),
    (None, None, ["eval", "--spec", "{spec}", "1e200*U*1e200"]),
    (None, None, ["eval", "--spec", "{spec}", "(1e200*U)^2"]),
    (None, None, ["eval", "--spec", "{spec}", "[1e200*U, 1e200*V]"]),
    (None, None, ["eval", "--spec", "{spec}", "--basis", "1", "delta(1e200*V*1e200)"]),
    (None, None, ["eval", "--spec", "{spec}", "1e200*1e200*U - 1e200*1e200*U"]),
    (None, None, ["eval", "--spec", "{spec}", "(1e200*U)^2 - (1e200*U)^2"]),
    (None, None, ["eval", "--spec", "{spec}", "--basis", "1",
                  "delta(1e200*1e200*V - 1e200*1e200*V)"]),
    (None, None, ["cohomology", "--carrier", "torus", "--trunc", "3", "--theta", "inf"]),
    (None, None, ["cohomology", "--carrier", "heisenberg", "--mu", "inf"]),
    (None, {"theta_matrix": [[0.0, -math.inf], [math.inf, 0.0]]}, EVAL_U),
    (None, {"theta_matrix": [[0.0, -2.0], [2.0 * (1 + 5e-6), 0.0]]}, EVAL_U),
    (None, None, ["deform", "torus", "--params", "inf,1"]),
    (None, None, ["cohomology", "--carrier", "matrix", "--n", "2", "--max-degree", "-1"]),
    (None, None, ["cohomology", "--carrier", "torus", "--trunc", "3", "--max-degree", "-1"]),
    (None, None, ["cohomology", "--carrier", "torus", "--theta", "1e308", "--trunc", "3"]),
    (None, HUGE_THETA, ["eval", "--spec", "{spec}", "--basis", "1", "delta(V^3)"]),
    (None, HUGE_THETA, ["eval", "--spec", "{spec}", "V^3*U^5"]),
    (None, HUGE_THETA, ["eval", "--spec", "{spec}", f"({SEVENTEEN})^2"]),
    (None, None, ["eval", "--spec", "{spec}", f"(1e200*U+{SEVENTEEN})^2"]),
    (None, None, ["deform", "torus", "--params", "0"]),
    (None, None, ["deform", "plane", "--params", "0.02,0.01,0"]),
    (None, None, ["deform", "heisenberg", "--params", "0"]),
    (None, None, ["deform", "torus", "--params", "0.01,0.02"]),
    (None, None, ["eval", "--spec", "{spec}", f"U^{HUGE} * V"]),
    (None, None, ["deform", "torus", "--degrees", HUGE]),
    (None, None, ["deform", "plane", "--k", f"{HUGE},0"]),
    (None, None, ["deform", "heisenberg", "--exponents", f"{HUGE},0,0"]),
    (None, None, ["eval", "--spec", "{spec}", "(" * 3000 + "U" + ")" * 3000]),
    (None, None, ["eval", "--spec", "{spec}", "U" + "'" * 100000]),
    (None, None, ["deform", "torus", "--params", "1e300,1e299", "--degrees", "10000000000"]),
    # a spec given as a string is written as it is, here as a graph file
    (None, "vertex a\nvertex b\nedge e a b\nedge e b a\n",
     ["graph", "--file", "{spec}", "h0"]),
], ids=["spec-without-theta-matrix", "config-truncation-string",
        "config-dropped-tolerance", "config-dropped-normalized-trace",
        "config-not-an-object", "config-nan-prune-epsilon",
        "config-negative-prune-epsilon", "config-infinite-prune-epsilon",
        "spec-theta-matrix-scalar", "spec-theta-matrix-object", "spec-meta-not-an-object",
        "semigroup-zero-samples", "semigroup-infinite-time", "semigroup-nan-time",
        "semigroup-no-times", "cohomology-matrix-n-zero", "cohomology-trunc-zero",
        "eval-zero-to-negative-power", "eval-power-overflow",
        "eval-infinite-literal", "eval-infinite-theta-hat-argument",
        "eval-scalar-product-overflow", "eval-element-scale-overflow",
        "eval-element-power-overflow", "eval-commutator-overflow",
        "eval-form-coefficient-overflow", "eval-overflow-difference",
        "eval-power-overflow-difference", "eval-form-overflow-difference",
        "cohomology-infinite-theta", "cohomology-infinite-mu", "spec-infinite-theta",
        "spec-theta-matrix-not-skew",
        "deform-infinite-parameter", "cohomology-matrix-negative-max-degree",
        "cohomology-torus-negative-max-degree", "cohomology-huge-theta",
        "eval-huge-theta-delta", "eval-huge-theta-product",
        "eval-huge-theta-array-product", "eval-array-product-overflow",
        "deform-torus-zero-parameter",
        "deform-plane-zero-parameter", "deform-heisenberg-zero-parameter",
        "deform-increasing-parameters", "eval-huge-exponent", "deform-torus-huge-degree",
        "deform-plane-huge-exponent", "deform-heisenberg-huge-exponent",
        "eval-deep-parentheses", "eval-many-adjoints", "deform-torus-overflowing-angle",
        "graph-duplicate-edge"])
def test_cli_bad_input_exits_2(tmp_path, spec_file, config, spec, argv):
    options = []
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        options += ["--config", str(path)]
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        spec_file = str(path)
    argv = [spec_file if a == "{spec}" else a for a in argv]
    rc, out, err = run_cli(options + argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


POWER_BASES = [
    ("torus", "U + 0.5*V' - 2i*U^2*V"),
    ("torus", "0.3*U^-1 + V + 1.5i"),
    ("heisenberg", "U + V + W"),
    ("heisenberg", "W' - 0.7i*U*V^2 + 0.2*W^2"),
]


@pytest.mark.parametrize("carrier, text", POWER_BASES)
def test_power_by_squaring_matches_repeated_products(carrier, text, torus, heisenberg):
    ctx = E.EvalContext(torus if carrier == "torus" else heisenberg)
    base = E.evaluate(E.parse(text), ctx)
    want = base
    for k in range(1, 13):
        got = E.evaluate(E.parse(f"({text})^{k}"), ctx)
        assert set(got.terms) == set(want.terms), k
        assert (got - want).norm() <= 1e-12 * max(1.0, want.norm()), k
        want = want * base


@pytest.mark.parametrize("carrier, text, exact", [
    ("torus", "2i*V^-3", True),
    ("heisenberg", "-0.5*W^2", True),
    ("torus", "2i*U^2*V^-1", False),       # exchange phases round differently
    ("heisenberg", "0.5*U*V^-2*W^3", False),
])
def test_power_of_a_monomial(carrier, text, exact, torus, heisenberg):
    ctx = E.EvalContext(torus if carrier == "torus" else heisenberg)
    base = E.evaluate(E.parse(text), ctx)
    want = base
    for k in range(1, 13):
        got = E.evaluate(E.parse(f"({text})^{k}"), ctx)
        (e, c), = got.terms.items()
        (f, d), = want.terms.items()
        assert e == f and (c == d if exact else abs(c - d) <= 1e-12 * abs(d)), k
        want = want * base


def test_huge_powers_take_logarithmically_many_products(spec_file, monkeypatch):
    products = []
    mul = QElement.__mul__
    monkeypatch.setattr(QElement, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    rc, out, _ = run_cli(["eval", "--spec", spec_file, "U^100000000000000000000"])
    assert rc == 0 and out == "1*U^100000000000000000000\n"
    assert len(products) <= 2 * (10 ** 20).bit_length()


def test_cli_huge_theta_names_the_coefficient():
    # the exchange angles overflow to inf, and their phases to nan
    rc, _, err = run_cli(["cohomology", "--carrier", "torus", "--theta", "1e308",
                          "--trunc", "3"])
    assert rc == 2 and "has the non-finite coefficient (nan+nanj)" in err


def test_cli_memory_error_exits_2(monkeypatch):
    # Whether a huge allocation raises or gets the process killed depends on
    # the host's overcommit policy, so the error is raised by hand.
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(cli.dirichlet, "audit_semigroup", exhausted)
    rc, out, err = run_cli(["semigroup", "--n", "2", "--t", "1",
                            "--samples", "100000000000"])
    assert rc == 2 and out == ""
    assert err == "error: Unable to allocate 1.46 TiB for an array\n"


def test_cli_deform_summary_is_strict_json():
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    rc, out, _ = run_cli(["deform", "torus", "--degrees", "0", "--summary"])
    assert rc == 0
    assert json.loads(out, parse_constant=reject)["fitted_order"] is None
    with pytest.raises(ValueError):
        cli._emit({"value": float("nan")})


@pytest.mark.parametrize("argv", [
    "deform torus --degrees 1,3 --summary",
    "deform heisenberg --direction W --exponents 2,1,0 --summary",
    "deform plane --summary",
])
def test_cli_deform_summaries_match_the_frozen_reference(argv):
    reference = Path(__file__).parents[1] / "benchmarks" / "reference.json"
    rc, out, _ = run_cli(argv.split())
    assert rc == 0 and out == json.loads(reference.read_text())[argv]


def test_cli_cohomology():
    rc, out, _ = run_cli(["cohomology", "--carrier", "matrix", "--n", "4",
                          "--max-degree", "1"])
    assert rc == 0
    rep = json.loads(out)
    assert set(rep) == {"basis", "carrier", "truncation", "degrees"}
    assert rep["degrees"][0]["h_dim"] == 4
    rc, out, _ = run_cli(["cohomology", "--carrier", "torus", "--theta", "0.7",
                          "--trunc", "4", "--max-degree", "0"])
    rep = json.loads(out)
    assert rep["truncation"]["K"] == 4
    assert rep["degrees"][0]["h_dim"] == 7


class _StillRunning(Exception):
    """Raised by the alarm of a CLI call that must return within a second."""


def _expire(signum, frame):
    raise _StillRunning


@pytest.mark.parametrize("argv", [
    ["cohomology", "--carrier", "matrix", "--n", "2", "--max-degree", "1000000"],
    ["cohomology", "--carrier", "torus", "--trunc", "3", "--max-degree", "200000"],
    ["cohomology", "--carrier", "matrix", "--n", "2", "--max-degree", "3"],
], ids=["matrix-huge", "torus-huge", "matrix-one-above"])
def test_cli_rejects_a_max_degree_above_the_top_degree(argv):
    # each degree above the top used to print a zero row, without a limit; the
    # alarm stops a call that still runs after a second (no OSError, which the
    # CLI would report as bad input)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        start = time.perf_counter()
        rc, out, err = run_cli(argv)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 2 and out == "" and elapsed < 1.0
    assert err == f"error: max_degree {argv[-1]} is above the basis's top degree 2\n"


@pytest.mark.parametrize("argv", [["semigroup", "--t", "1"], ["cohomology", "--carrier", "matrix"]],
                         ids=["semigroup", "cohomology"])
def test_cli_refuses_a_matrix_dimension_too_large_for_memory(argv, monkeypatch):
    # N dense N x N projections peak near 80 N^3 bytes, 80 PB at N = 100000:
    # the bound is checked before anything is built
    run_cli(argv + ["--n", "2"])  # the parser, built once
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rc, out, err = run_cli(argv + ["--n", "100000"])
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == "" and elapsed < 1.0 and peak < 2 ** 20
    assert err == f"error: --n 100000 > {cli._MAX_MATRIX_N}: M_n projections need about " \
        "80 n^3 bytes\n"
    assert cli._MAX_MATRIX_N >= 64
    # the bound itself is allowed
    monkeypatch.setattr(cli, "_MAX_MATRIX_N", 3)
    assert run_cli(argv + ["--n", "3"])[0] == 0 and run_cli(argv + ["--n", "4"])[0] == 2


def test_cli_selftest():
    rc, out, _ = run_cli(["selftest"])
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_benchmark_tracer_finds_and_restores_what_it_wraps(monkeypatch):
    # the traced benchmark run wraps carrier methods and module functions by
    # name: one moved or renamed fails here, in the tier-1 suite
    path = Path(__file__).parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.Tracer(tracer.SpanRecorder(), benchmark_workloads(monkeypatch).load_ncdiff())

    def bound():
        return [vars(owner)[attr] for owner, attr, _, _ in traced._patches]
    originals = [orig for _, _, orig, _ in traced._patches]
    assert len(originals) == 42 and bound() == originals
    traced.install()
    try:
        assert bound() == [wrapper for _, _, _, wrapper in traced._patches]
    finally:
        traced.uninstall()
    assert all(now is orig for now, orig in zip(bound(), originals))


def _workflow_pytest_steps(text: str) -> list:
    """(step name, argv after ``pytest``) of each step of a workflow that runs
    pytest, its ``run:`` read as one line, or folded from its indented block."""
    steps, name, lines = [], None, text.splitlines()
    for i, line in enumerate(lines):
        key = re.match(r"(\s*)(?:- )?(name|run): (.*)$", line)
        if key is None:
            continue
        indent, field, value = key.groups()
        if field == "name":
            name = value
            continue
        if value in (">-", ">"):
            block = itertools.takewhile(
                lambda x: len(x) - len(x.lstrip()) > len(indent), lines[i + 1:])
            value = " ".join(x.strip() for x in block)
        argv = shlex.split(value)
        if "pytest" in argv:
            steps.append((name, argv[argv.index("pytest") + 1:]))
    return steps


def test_the_workflow_names_only_tests_that_exist():
    # the CI steps select tests by file, node id and -k: one moved, renamed or
    # deleted fails here, in the tier-1 suite, not only when the workflow runs
    root = Path(__file__).parents[1]
    steps = _workflow_pytest_steps((root / ".github" / "workflows" / "tier1.yml").read_text())
    named, selections = 0, 0
    for step, argv in steps:
        functions = set()
        for arg in argv:
            if not arg.startswith("tests/"):
                continue
            file, _, test = arg.partition("::")
            assert (root / file).is_file(), (step, arg)
            tree = ast.parse((root / file).read_text())
            defined = {node.name for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}
            assert not test or test in defined, (step, arg)
            functions |= {test} if test else defined
            named += 1
        for option, value in zip(argv, argv[1:]):
            if option != "-k":
                continue
            for alternative in re.split(r"\s+or\s+", value.strip()):
                assert re.fullmatch(r"\w+", alternative), (step, value)
                assert any(alternative.lower() in f.lower() for f in functions), (step, alternative)
            selections += 1
    assert len(steps) >= 10 and named >= 21 and selections >= 3


def _assert_frozen_selftest(out, text_matches):
    """``out`` is the frozen selftest of benchmarks/reference.json byte for
    byte, except the numbers of the semigroup audit line: they are
    rounding-level (about 1e-16) and vary with the LAPACK build, so they get
    the benchmark's own text tolerance ``text_matches``."""
    reference = Path(__file__).parents[1] / "benchmarks" / "reference.json"
    want = json.loads(reference.read_text())["selftest"].splitlines(True)
    got = out.splitlines(True)
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w and not (
        w.startswith("semigroup audit") and text_matches(g, w))] == []


def test_module_entry_points(monkeypatch):
    env = dict(os.environ, PYTHONPATH=str(Path(ncdiff.__file__).parents[1]))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run_module("ncdiff", "selftest")
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines and all(line.endswith(" PASS") for line in lines)
    _assert_frozen_selftest(done.stdout, benchmark_workloads(monkeypatch).text_matches)
    done = run_module("ncdiff.cli", "cohomology", "--carrier", "matrix", "--n", "0")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _held_selftest_elements():
    """Every carrier element the selftest battery holds between calls."""
    from ncdiff import testing
    held = [f for _, alphas in testing._delta_inputs() for f in alphas]
    held += [f for _, pairs in testing._leibniz_inputs() for pair in pairs for f in pair]
    basis, pairs = testing._carre_inputs()
    elements = [x for pair in pairs for x in pair]
    for b in [*{id(f.basis): f.basis for f in held}.values(), basis]:
        elements += b.elements + b.scaled + b.scaled_star + b.diagonal
    return elements + [c for f in held for c in f.terms.values()]


def test_repeated_selftests_match_the_frozen_reference(monkeypatch):
    # the battery's held inputs give every call the stdout of a fresh process
    text_matches = benchmark_workloads(monkeypatch).text_matches
    outs = []
    for _ in range(3):
        rc, out, err = run_cli(["selftest"])
        assert rc == 0 and err == ""
        _assert_frozen_selftest(out, text_matches)
        outs.append(out)
    assert outs[1] == outs[0] and outs[2] == outs[0]
    # no held q-lattice or graph element keeps keyed arrays, which would send
    # the next call from the loops to the array routes and their rounding
    from ncdiff.graph_algebra import GraphElement
    held = [x for x in _held_selftest_elements() if isinstance(x, (QElement, GraphElement))]
    assert {type(x) for x in held} == {QElement, GraphElement}
    assert [x for x in held if x._keyed] == []


def test_selftest_runs_without_scipy():
    # scipy is a test dependency only: the package and its battery run without it
    env = dict(os.environ, PYTHONPATH=str(Path(ncdiff.__file__).parents[1]))
    code = ("import sys; sys.modules['scipy'] = None; sys.argv = ['ncdiff', 'selftest']; "
            "import ncdiff.cli; ncdiff.cli.run()")
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines and all(line.endswith(" PASS") for line in lines)


def test_parser_is_built_once_and_lazily():
    assert cli.build_parser() is cli.build_parser()
    env = dict(os.environ, PYTHONPATH=str(Path(ncdiff.__file__).parents[1]))
    code = "import ncdiff.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.stdout == "0\n"


def test_reused_parser_starts_each_call_afresh(tmp_path):
    # a rejected command leaves nothing behind for the next one
    with pytest.raises(SystemExit) as exc:
        run_cli(["cohomology", "--carrier", "nope"])
    assert exc.value.code == 2
    def matrix_dims(argv):
        rc, out, _ = run_cli(["cohomology", "--carrier", "matrix"] + argv)
        assert rc == 0
        return [r["h_dim"] for r in json.loads(out)["degrees"]]

    assert matrix_dims(["--n", "2"]) == [2, 4, 2]
    # an option of one call is not the default of the next: n falls back to 3
    assert matrix_dims(["--n", "4"]) == [4 * math.comb(4, k) for k in range(5)]
    assert matrix_dims([]) == [3, 9, 9, 3]
    # the config file is read on every call
    torus = ["cohomology", "--carrier", "torus", "--max-degree", "0"]
    for K in (2, 3, 2):
        cfg = tmp_path / f"cfg{K}.json"
        cfg.write_text(json.dumps({"truncation": K}))
        rc, out, _ = run_cli(["--config", str(cfg)] + torus)
        assert json.loads(out)["truncation"]["K"] == K
    rc, out, _ = run_cli(torus)
    assert json.loads(out)["truncation"]["K"] == cli.Config().truncation
    # help goes to the stdout of the moment, call after call
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--help"])
        assert exc.value.code == 0
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit):
        main(["eval", "--help"])
    assert buf.getvalue().startswith("usage: ncdiff eval")


def test_reused_parser_matches_a_fresh_process(spec_file, star_file):
    commands = [
        ["eval", "--spec", spec_file, "--basis", "1", "delta(V^2 + 0.5*U*V)"],
        ["graph", "--file", star_file, "h0"],
        ["semigroup", "--n", "2", "--t", "0.5,1", "--samples", "5"],
        ["deform", "torus", "--degrees", "1,2"],
        ["selftest"],
    ]
    in_process = [run_cli(argv) for argv in commands]
    env = dict(os.environ, PYTHONPATH=str(Path(ncdiff.__file__).parents[1]))
    for argv, (rc, out, _) in zip(commands, in_process):
        done = subprocess.run([sys.executable, "-m", "ncdiff", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (rc, out) == (done.returncode, done.stdout) == (0, done.stdout), argv


def test_closed_stdout_exits_quietly():
    # Unbuffered, so every selftest line is its own write and the lines after
    # the first meet the closed pipe.
    env = dict(os.environ, PYTHONPATH=str(Path(ncdiff.__file__).parents[1]),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "ncdiff", "selftest"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline().endswith(" PASS\n")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.CLOSED_PIPE == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == ""  # no "error:" line and no traceback


@pytest.mark.parametrize("csv", [False, True], ids=["json", "csv"])
def test_a_non_finite_audit_row_exits_2_before_the_first_byte(csv, monkeypatch):
    # the report is streamed and cannot take back what it wrote, so the audit
    # record refuses a nan row before anything is printed
    audit = cli.dirichlet.audit_semigroup

    def planted(*args, **kwargs):
        real = audit(*args, **kwargs)
        rows = [{**r, "markov_max": math.nan} for r in real.results]
        return cli.dirichlet.SemigroupAudit(real.n, real.basis_label, rows)

    monkeypatch.setattr(cli.dirichlet, "audit_semigroup", planted)
    argv = ["semigroup", "--n", "3", "--t", "0.5,1", "--samples", "5"] + ["--csv"] * csv
    rc, out, err = run_cli(argv)
    assert (rc, out, err) == (2, "", "error: audit rows must be finite\n")


def _o2_file(tmp_path) -> str:
    path = tmp_path / "o2.txt"
    path.write_text("vertex o\nedge a o o\nedge b o o\n")
    return str(path)


def test_a_streamed_report_stops_quietly_on_a_closed_stdout(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ncdiff.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "ncdiff", "graph", "--file", _o2_file(tmp_path),
                             "closed", "--max-len", "6"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.read(100).startswith('{\n  "closed_terms": [')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.CLOSED_PIPE
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == ""


class _Sink:
    """A stdout that counts what it is given and keeps none of it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


def test_a_streamed_report_is_never_held_whole(tmp_path):
    # graph closed on O_2 at max_len 6 prints 16,129 terms, 5.7 MB; the
    # traced peak was 55 MB when the text was rendered whole before printing
    argv = ["graph", "--file", _o2_file(tmp_path), "closed", "--max-len", "6"]
    sink = _Sink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and sink.size > 5 * 2 ** 20 and peak < 25 * 2 ** 20


def test_cli_config(tmp_path, spec_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prune_epsilon": 1e-6}))
    rc, out, _ = run_cli(["--config", str(cfg), "eval", "--spec", spec_file,
                          "--json", "0.001 * U + 0.0000001 * V"])
    assert rc == 0
    items = json.loads(out)
    assert [it["exponents"] for it in items] == [[1, 0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery": 1}))
    rc, _, err = run_cli(["--config", str(bad), "eval", "--spec", spec_file, "U"])
    assert rc == 2


def test_small_operands_never_take_the_array_routes(monkeypatch, tmp_path):
    # selftest and the benchmark's interactive eval commands work on at most
    # 32 terms, so they keep the loops (and their stdout) bit for bit
    from ncdiff import qlattice

    def refuse(*args):
        raise AssertionError("array route entered")
    for name in ("_array_adjoint", "_array_product"):
        monkeypatch.setattr(qlattice, name, refuse)
    monkeypatch.setattr(qlattice.QElement, "_held", refuse)
    for _ in range(2):  # the second call runs on the held inputs
        rc, out, err = run_cli(["selftest"])
        assert rc == 0 and err == "" and out.count(" PASS\n") == len(out.splitlines())
    workloads = benchmark_workloads(monkeypatch)
    names = workloads.write_interactive_files(workloads.load_ncdiff(), tmp_path)
    files = {"{torus}": [names[f"torus-{theta}"] for theta in workloads.INTERACTIVE_THETAS],
             "{heis}": [names[f"heis-{mu}-{nu}"] for mu, nu in workloads.INTERACTIVE_HEIS]}
    ran = 0
    for template in workloads.TORUS_COMMANDS + workloads.HEIS_COMMANDS:
        if template[0] != "eval":
            continue
        slot = next(a for a in template if a in files)
        for name in files[slot]:
            argv = [str(tmp_path / name) if a == slot else a for a in template]
            rc, out, err = run_cli(argv)
            assert rc == 0 and err == "" and out, argv
            ran += 1
    assert ran == 8 * 3 + 6 * 2


def test_small_graph_operands_never_take_the_array_routes(monkeypatch, tmp_path):
    # selftest and the benchmark's interactive graph commands work on at most
    # 3 terms, so they keep the pair loop and the list-based vertex action,
    # and their frozen stdout, bit for bit
    from ncdiff import graph_algebra

    def refuse(*args):
        raise AssertionError("array route entered")
    for name in ("_array_product", "_term_codes"):
        monkeypatch.setattr(graph_algebra, name, refuse)
    monkeypatch.setattr(graph_algebra.GraphElement, "_held", refuse)
    workloads = benchmark_workloads(monkeypatch)
    reference = workloads.load_reference()
    for _ in range(2):  # the second call runs on the held inputs
        rc, out, err = run_cli(["selftest"])
        assert rc == 0 and err == ""
        _assert_frozen_selftest(out, workloads.text_matches)
    names = workloads.write_interactive_files(workloads.load_ncdiff(), tmp_path)
    ran = 0
    for template in workloads.FIXED_COMMANDS:
        if template[0] != "graph":
            continue
        argv = [a.format(star=names["star"], loop=names["loop"], line=names["line"])
                for a in template]
        rc, out, err = run_cli([str(tmp_path / a) if a in names.values() else a for a in argv])
        assert rc == 0 and err == "" and out == reference[" ".join(argv)], argv
        ran += 1
    assert ran == 5


@pytest.mark.parametrize("key", ["load", "__doc__", "__class__"])
def test_cli_config_takes_only_the_settings(tmp_path, spec_file, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "x"}))
    rc, _, err = run_cli(["--config", str(cfg), "eval", "--spec", spec_file, "U"])
    assert rc == 2 and f"unknown config key {key!r}" in err
