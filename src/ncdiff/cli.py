"""Command-line entry point.

Subcommands: ``eval`` (expression to normal form), ``cohomology``
(complex-dimension report), ``graph`` (combinatorial reports), ``semigroup``
(heat-channel audit), ``deform`` (limit sweeps), ``selftest``.  Exit codes:
0 success, 1 failed check, 2 bad input (also an input too large for memory,
an integer too large for a float, or an expression nested too deeply),
141 (128 + SIGPIPE) when the reader closes stdout early.

JSON is streamed to stdout as it is encoded, never held whole as text, so a
non-finite value is refused by its record (or by ``expr.check_finite`` for
``eval``) before the first byte: a stream cannot take back what it wrote.

The argument parser is built on the first call of :func:`main` and reused by
every later call in the process: each parse returns a fresh namespace, and
argparse writes help and errors to the ``sys.stdout``/``sys.stderr`` of the
moment, so redirected output keeps working.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from . import cohomology as coh
from . import deformation as dfm
from . import dirichlet
from . import expr
from . import graph_algebra as ga
from . import testing
from .carrier import PRUNE_EPSILON
from .forms import DifferentialBasis, form_to_json
from .matrix_algebra import projection_basis
from .qlattice import (QElement, element_to_json, heisenberg_spec, spec_from_json,
                       torus_spec)

BAD_INPUT = 2
FAILED_CHECK = 1
CLOSED_PIPE = 141  # 128 + SIGPIPE, the status of a writer killed by a closed pipe
# `semigroup --n N` and `cohomology --carrier matrix --n N` build N dense N x N
# projections and peak near 80 N^3 bytes: 0.66-0.84 GB RSS at N = 200 and
# 2.1-2.5 GB at N = 300 (2-core x86-64 VM).
_MAX_MATRIX_N = 200


class Config:
    """The settings a ``--config`` JSON object may override, key by key."""

    def __init__(self, truncation: int = 6, prune_epsilon: float = PRUNE_EPSILON):
        self.truncation = truncation
        self.prune_epsilon = prune_epsilon

    @classmethod
    def load(cls, path: str | None) -> "Config":
        cfg = cls()
        if path:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("config file must hold a JSON object")
            for key, value in data.items():
                if key not in vars(cfg):
                    raise ValueError(f"unknown config key {key!r}")
                kind = type(getattr(cfg, key))
                accepted = (int, float) if kind is float else kind
                if isinstance(value, bool) or not isinstance(value, accepted):
                    raise ValueError(f"config key {key!r} must be {kind.__name__}, "
                                     f"got {value!r}")
                setattr(cfg, key, kind(value))
        if not 0.0 <= cfg.prune_epsilon < math.inf:
            raise ValueError(f"prune_epsilon must be finite and >= 0, got {cfg.prune_epsilon}")
        return cfg


def _parse_list(text: str, option: str, kind=int) -> list:
    """The comma-separated ints (or floats) of an option; ValueError names a bad item."""
    out = []
    for x in filter(str.strip, text.split(",")):
        try:
            out.append(kind(x))
        except ValueError:
            raise ValueError(f"{option} takes comma-separated {kind.__name__}s, "
                             f"got {x.strip()!r}") from None
    return out


def _emit(obj) -> None:
    """Print strict JSON as it is encoded, a few thousand chunks to a write (one
    write per chunk is a system call each on an unbuffered stdout)."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(obj)
    while text := "".join(itertools.islice(chunks, 4096)):
        sys.stdout.write(text)
    sys.stdout.write("\n")


def _cmd_eval(args, cfg: Config) -> int:
    with open(args.spec) as fh:
        spec = spec_from_json(json.load(fh))
    spec.prune_epsilon = cfg.prune_epsilon
    basis = None
    if args.basis:
        gens = [QElement.generator(spec, i) for i in _parse_list(args.basis, "--basis")]
        basis = DifferentialBasis(gens, label=f"generators {args.basis}")
    ctx = expr.EvalContext(spec, basis)
    ast = expr.parse(args.expression)
    value = expr.evaluate(ast, ctx)
    expr.check_finite(value)
    if isinstance(value, complex):
        value = QElement.one(spec).scale(value)
    if args.json:
        _emit(element_to_json(value) if isinstance(value, QElement)
              else form_to_json(value, element_to_json))
    elif isinstance(value, QElement):
        print(expr.format_element(value))
    else:
        print(expr.format_form(value))
    return 0


def _projection_basis(n: int) -> DifferentialBasis:
    """The M_n projection basis, refused before anything is built above ``_MAX_MATRIX_N``."""
    if n > _MAX_MATRIX_N:
        raise ValueError(f"--n {n} > {_MAX_MATRIX_N}: M_n projections need about 80 n^3 bytes")
    return DifferentialBasis(projection_basis(n), mode="selfadjoint", label=f"M_{n} projections")


def _cohomology_setup(args, cfg: Config):
    if args.carrier == "matrix":
        n = 3 if args.n is None else args.n
        return _projection_basis(n), coh.MatrixCarrierBasis(n), None
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
    if args.action in ("h0", "closed"):
        report = ga.h0_report_json(ga.h0_report(graph, args.max_len))
        _emit(report if args.action == "h0" else {"closed_terms": report["closed_terms"]})
        return 0
    if not args.path:
        raise ValueError("criterion needs a comma-separated edge path")
    mu = graph.path(args.path.split(","))
    flag = ga.full_isometry_criterion(graph, mu)
    verified = ga.expand_projection_check(graph, mu) if flag else None
    _emit({"path": ga._path_json(mu), "criterion": flag, "verified": verified})
    return 0


def _cmd_semigroup(args, cfg: Config) -> int:
    ts = _parse_list(args.t, "--t", float)
    audit = dirichlet.audit_semigroup(ts, args.n, _projection_basis(args.n), samples=args.samples)
    if args.csv:
        sys.stdout.write(audit.to_csv())
    else:
        _emit(audit.to_json())
    return 0


def _cmd_deform(args, cfg: Config) -> int:
    params = _parse_list(args.params, "--params", float)
    if args.family == "torus":
        coeffs = {(d,): 1.0 for d in _parse_list(args.degrees, "--degrees")}
        sweep = dfm.torus_limit_sweep(coeffs, params)
    elif args.family == "plane":
        k = tuple(_parse_list(args.k, "--k"))
        t = tuple(_parse_list(args.t, "--t"))
        sweep = dfm.plane_limit_sweep(k, {t: 1.0}, params, step=args.step)
    else:
        e = tuple(_parse_list(args.exponents, "--exponents"))
        sweep = dfm.heisenberg_limit_sweep(args.direction, e, params,
                                           mu=args.mu, nu=args.nu)
    if args.summary:
        _emit(sweep.summary_json())
    else:
        sys.stdout.write(sweep.to_csv())
    return 0


def _cmd_selftest(args, cfg: Config) -> int:
    return 0 if testing.run_selftest() else FAILED_CHECK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ncdiff",
                                 description="inner-derivation differential "
                                             "calculus workbench")
    ap.add_argument("--config", help="JSON config file (truncation, prune_epsilon)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to normal form")
    p.add_argument("--spec", required=True, help="presentation JSON file")
    p.add_argument("--basis", help="comma-separated generator indices for delta")
    p.add_argument("--json", action="store_true", help="emit element or form JSON")
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
    except (OSError, ValueError, json.JSONDecodeError, MemoryError, OverflowError,
            RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
