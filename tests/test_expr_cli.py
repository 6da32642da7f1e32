import cmath
import io
import json
import math
import os
import subprocess
import sys
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
        text = E.to_text(ast)
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
    rc, _, _ = run_cli(["graph", "--file", star_file, "criterion"])
    assert rc == 2


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
SQUARE = [[0.0, 0.7], [-0.7, 0.0]]


@pytest.mark.parametrize("config, spec, argv", [
    (None, {"generators": 2, "label": "no relations"}, EVAL_U),
    ({"truncation": "x"}, None, EVAL_U),
    ({"tolerance": 1e-9}, None, EVAL_U),
    ({"normalized_trace": False}, None, EVAL_U),
    ([6], None, EVAL_U),
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
    (None, None, ["deform", "torus", "--params", "inf,1"]),
    (None, None, ["cohomology", "--carrier", "matrix", "--n", "2", "--max-degree", "-1"]),
    (None, None, ["cohomology", "--carrier", "torus", "--trunc", "3", "--max-degree", "-1"]),
], ids=["spec-without-theta-matrix", "config-truncation-string",
        "config-dropped-tolerance", "config-dropped-normalized-trace",
        "config-not-an-object", "spec-theta-matrix-scalar",
        "spec-theta-matrix-object", "spec-meta-not-an-object",
        "semigroup-zero-samples", "semigroup-infinite-time", "semigroup-nan-time",
        "semigroup-no-times", "cohomology-matrix-n-zero", "cohomology-trunc-zero",
        "eval-zero-to-negative-power", "eval-power-overflow",
        "eval-infinite-literal", "eval-infinite-theta-hat-argument",
        "eval-scalar-product-overflow", "eval-element-scale-overflow",
        "eval-element-power-overflow", "eval-commutator-overflow",
        "eval-form-coefficient-overflow", "eval-overflow-difference",
        "eval-power-overflow-difference", "eval-form-overflow-difference",
        "cohomology-infinite-theta", "cohomology-infinite-mu", "spec-infinite-theta",
        "deform-infinite-parameter", "cohomology-matrix-negative-max-degree",
        "cohomology-torus-negative-max-degree"])
def test_cli_bad_input_exits_2(tmp_path, spec_file, config, spec, argv):
    options = []
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        options += ["--config", str(path)]
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        spec_file = str(path)
    argv = [spec_file if a == "{spec}" else a for a in argv]
    rc, out, err = run_cli(options + argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_cli_selftest():
    rc, out, _ = run_cli(["selftest"])
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_module_entry_points():
    env = dict(os.environ, PYTHONPATH=str(Path(ncdiff.__file__).parents[1]))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", *argv], capture_output=True,
                              text=True, env=env, timeout=120)

    done = run_module("ncdiff", "selftest")
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines and all(line.endswith(" PASS") for line in lines)
    done = run_module("ncdiff.cli", "cohomology", "--carrier", "matrix", "--n", "0")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


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
