"""Command-line entry point.

Subcommands: ``eval`` (expression to normal form), ``cohomology``
(complex-dimension report), ``graph`` (combinatorial reports), ``semigroup``
(heat-channel audit), ``deform`` (limit sweeps), ``selftest``.  Exit codes:
0 success, 1 failed check, 2 bad input (also an input too large for memory),
141 (128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import cohomology as coh
from . import deformation as dfm
from . import dirichlet
from . import expr
from . import graph_algebra as ga
from .carrier import PRUNE_EPSILON
from .forms import DifferentialBasis
from .matrix_algebra import projection_basis
from .qlattice import (QElement, element_to_json, heisenberg_spec, spec_from_json,
                       torus_spec)

BAD_INPUT = 2
FAILED_CHECK = 1
CLOSED_PIPE = 141  # 128 + SIGPIPE, the status of a writer killed by a closed pipe


@dataclass
class Config:
    truncation: int = 6
    prune_epsilon: float = PRUNE_EPSILON

    @classmethod
    def load(cls, path: str | None) -> "Config":
        cfg = cls()
        if path:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("config file must hold a JSON object")
            for key, value in data.items():
                if not hasattr(cfg, key):
                    raise ValueError(f"unknown config key {key!r}")
                kind = type(getattr(cfg, key))
                accepted = (int, float) if kind is float else kind
                if isinstance(value, bool) or not isinstance(value, accepted):
                    raise ValueError(f"config key {key!r} must be {kind.__name__}, "
                                     f"got {value!r}")
                setattr(cfg, key, kind(value))
        return cfg


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


def _cmd_eval(args, cfg: Config) -> int:
    with open(args.spec) as fh:
        spec = spec_from_json(json.load(fh))
    spec.prune_epsilon = cfg.prune_epsilon
    basis = None
    if args.basis:
        gens = [QElement.generator(spec, i) for i in _parse_int_list(args.basis)]
        basis = DifferentialBasis(gens, label=f"generators {args.basis}")
    ctx = expr.EvalContext(spec, basis)
    ast = expr.parse(args.expression)
    value = expr.evaluate(ast, ctx)
    expr.check_finite(value)
    if isinstance(value, complex):
        value = QElement.one(spec).scale(value)
    if isinstance(value, QElement):
        if args.json:
            _emit(element_to_json(value))
        else:
            print(expr.format_element(value))
    else:
        print(expr.format_form(value))
    return 0


def _cohomology_setup(args, cfg: Config):
    if args.carrier == "matrix":
        n = 3 if args.n is None else args.n
        basis = DifferentialBasis(projection_basis(n), mode="selfadjoint",
                                  label=f"M_{n} projections")
        return basis, coh.MatrixCarrierBasis(n), None
    if args.carrier == "torus":
        spec = torus_spec(args.theta)
        basis = DifferentialBasis([QElement.generator(spec, 1)], label="torus {U}")
        return basis, spec, cfg.truncation if args.trunc is None else args.trunc
    spec = heisenberg_spec(args.mu, args.nu, hbar=args.hbar)
    basis = DifferentialBasis([QElement.generator(spec, 3)], label="heisenberg {W}")
    return basis, spec, cfg.truncation if args.trunc is None else args.trunc


def _cmd_cohomology(args, cfg: Config) -> int:
    basis, carrier, K = _cohomology_setup(args, cfg)
    if K is None:
        report = coh.deRham_dims(basis, carrier, max_degree=args.max_degree)
    else:
        report = coh.deRham_dims_truncated(basis, carrier, K,
                                           max_degree=args.max_degree)
    _emit(report.to_json())
    return 0


def _cmd_graph(args, cfg: Config) -> int:
    with open(args.file) as fh:
        graph = ga.parse_graph(fh.read())
    if args.action == "h0":
        report = ga.h0_report(graph, args.max_len)
        _emit(ga.h0_report_json(report))
        return 0
    if args.action == "closed":
        report = ga.h0_report(graph, args.max_len)
        _emit({"closed_terms": ga.h0_report_json(report)["closed_terms"]})
        return 0
    if not args.path:
        print("criterion needs a comma-separated edge path", file=sys.stderr)
        return BAD_INPUT
    mu = graph.path(args.path.split(","))
    flag = ga.full_isometry_criterion(graph, mu)
    verified = ga.expand_projection_check(graph, mu) if flag else None
    _emit({"path": {"source": mu.source, "edges": list(mu.edges), "range": mu.range},
           "criterion": flag, "verified": verified})
    return 0


def _cmd_semigroup(args, cfg: Config) -> int:
    n = args.n
    basis = DifferentialBasis(projection_basis(n), mode="selfadjoint",
                              label=f"M_{n} projections")
    ts = _parse_float_list(args.t)
    audit = dirichlet.audit_semigroup(ts, n, basis, samples=args.samples)
    if args.csv:
        sys.stdout.write(audit.to_csv())
    else:
        _emit(audit.to_json())
    return 0


def _cmd_deform(args, cfg: Config) -> int:
    params = _parse_float_list(args.params)
    if args.family == "torus":
        coeffs = {(d,): 1.0 for d in _parse_int_list(args.degrees)}
        sweep = dfm.torus_limit_sweep(coeffs, params)
    elif args.family == "plane":
        k = tuple(_parse_int_list(args.k))
        t = tuple(_parse_int_list(args.t))
        sweep = dfm.plane_limit_sweep(k, {t: 1.0}, params, step=args.step)
    else:
        e = tuple(_parse_int_list(args.exponents))
        sweep = dfm.heisenberg_limit_sweep(args.direction, e, params,
                                           mu=args.mu, nu=args.nu)
    if args.summary:
        _emit(sweep.summary_json())
    else:
        sys.stdout.write(sweep.to_csv())
    return 0


def _cmd_selftest(args, cfg: Config) -> int:
    from .testing import run_selftest
    return 0 if run_selftest() else FAILED_CHECK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ncdiff",
                                 description="inner-derivation differential "
                                             "calculus workbench")
    ap.add_argument("--config", help="JSON config file (truncation, prune_epsilon)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to normal form")
    p.add_argument("--spec", required=True, help="presentation JSON file")
    p.add_argument("--basis", help="comma-separated generator indices for delta")
    p.add_argument("--json", action="store_true", help="emit element JSON")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cohomology", help="complex dimension report")
    p.add_argument("--carrier", required=True,
                   choices=["matrix", "torus", "heisenberg"])
    p.add_argument("--n", type=int, help="matrix dimension")
    p.add_argument("--theta", type=float, default=0.7)
    p.add_argument("--mu", type=float, default=0.11)
    p.add_argument("--nu", type=float, default=0.07)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--trunc", type=int, help="q-carrier exponent truncation")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("graph", help="graph-algebra reports")
    p.add_argument("--file", required=True, help="graph text file")
    p.add_argument("action", choices=["h0", "closed", "criterion"])
    p.add_argument("path", nargs="?", help="comma-separated edges (criterion)")
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("semigroup", help="heat-channel audit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("deform", help="deformation limit sweeps")
    p.add_argument("family", choices=["torus", "plane", "heisenberg"])
    p.add_argument("--params", default="1e-2,5e-3,2.5e-3,1.25e-3")
    p.add_argument("--degrees", default="1", help="torus: monomial degrees")
    p.add_argument("--k", default="1,0", help="plane: basis exponents k1,k2")
    p.add_argument("--t", default="0,1", help="plane: data lattice point t1,t2")
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--direction", default="W", choices=["U", "V", "W"])
    p.add_argument("--exponents", default="1,0,0")
    p.add_argument("--mu", type=float, default=0.11)
    p.add_argument("--nu", type=float, default=0.07)
    p.add_argument("--summary", action="store_true",
                   help="print the JSON summary instead of CSV rows")
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("selftest", help="run the condensed invariant battery")
    p.set_defaults(func=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = Config.load(args.config)
        rc = args.func(args, cfg)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader closed stdout (``ncdiff selftest | head -1``): stop quietly
        # and let the flush at interpreter exit write to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE
    except (OSError, ValueError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
