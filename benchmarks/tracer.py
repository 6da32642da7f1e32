"""Span recorder for the traced run.

Spans are recorded from the benchmark's own side: every public ncdiff
function or carrier method that :class:`Tracer` lists is replaced, for the
duration of a traced pass, by a wrapper that opens a span before the call
and closes it after.  A span is ``[name, start, end, parent, job]``;
spans stay in memory and are written once, when the run ends.

Self time is a span's duration minus the time covered by its child spans,
so the self times of all spans of a job add up to the job's wall time.
Work that only the tracer does (counting nonzeros of a matrix, say) runs in
a ``trace.bookkeeping`` span, which keeps it out of every layer's self time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"
BYTES_PER_ENTRY = 16  # complex128


class SpanRecorder:
    """In-memory spans, counters and per-call work records of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.work: list = []
        self.job = None
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def self_times(self, first: int = 0) -> Counter:
        """Self seconds summed by span name over spans[first:]."""
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent - first] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            out[name] += (end - start) - covered[i]
        return out

    def calls(self, first: int = 0) -> Counter:
        return Counter(span[0] for span in self.spans[first:])


def _wrap(rec: SpanRecorder, name: str, fn, after=None, book=None):
    """Wrapper that records a span around ``fn``.

    ``after(args, result)`` updates counters cheaply; ``book(args, result)``
    does numpy work and is charged to the bookkeeping span.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(args, result)
        if book is not None:
            b = rec.open(BOOKKEEPING)
            try:
                book(args, result)
            finally:
                rec.close(b)
        return result
    return wrapper


def _count_only(rec: SpanRecorder, key: str, fn, hit=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec.counters[key] += 1
        if hit is not None and result is not None:
            rec.counters[hit] += 1
        return result
    return wrapper


# -- computed work estimates ---------------------------------------------------
# Flop and byte counts below are computed from array shapes, not measured:
# real floating-point operations of the textbook algorithm, and bytes of the
# arrays the call reads and writes once each.

def svd_flops(m: int, n: int) -> int:
    """Singular values of a complex m x n matrix (bidiagonalization)."""
    big, small = max(m, n), min(m, n)
    return 4 * (4 * big * small * small - (4 * small ** 3) // 3)


def superop_flops(n: int, k: int) -> int:
    """delta_superoperator: per basis element two commutator superoperators
    (two Kronecker products and a difference each) and one N x N product."""
    N = n * n
    return k * (8 * N ** 3 + 30 * N * N)


def heat_flops(n: int, diagonal: bool) -> int:
    """heat_superoperator's own work after the generator is built."""
    N = n * n
    if diagonal:
        return 2 * N * N
    return 44 * N ** 3  # Hermitian eigendecomposition with vectors + rebuild


class Tracer:
    """Installs and removes the span wrappers on the ncdiff modules."""

    def __init__(self, rec: SpanRecorder, mods):
        self.rec = rec
        self._patches: list = []
        self._mods = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "ncdiff" or name.startswith("ncdiff."))]
        np = mods.np
        qe, me, ge = mods.qlattice.QElement, mods.matrix_algebra.MatElement, \
            mods.graph_algebra.GraphElement
        counters = rec.counters

        def q_mul_after(args, result):
            a, b = args
            if isinstance(b, qe) and isinstance(result, qe):
                counters["qlattice.mul.term_pairs"] += len(a.terms) * len(b.terms)
                counters["qlattice.mul.out_terms"] += len(result.terms)

        def g_mul_after(args, result):
            a, b = args
            if isinstance(b, ge):
                counters["graph_algebra.mul.term_pairs"] += len(a.terms) * len(b.terms)

        def rank_book(args, result):
            M = args[0]
            m, n = M.shape
            nnz = int(np.count_nonzero(M))
            flops = svd_flops(m, n) if M.size else 0
            counters["numeric_rank.entries"] += M.size
            counters["numeric_rank.nonzeros"] += nnz
            counters["numeric_rank.flops_computed"] += flops
            counters["numeric_rank.bytes_computed"] += BYTES_PER_ENTRY * M.size
            rec.work.append({"fn": "cohomology.numeric_rank", "job": rec.job,
                             "shape": [m, n], "entries": M.size,
                             "density": nnz / M.size if M.size else 0.0,
                             "flops_computed": flops,
                             "bytes_computed": BYTES_PER_ENTRY * M.size,
                             "rank": result})

        def boundary_book(args, result):
            counters["boundary_matrix.entries"] += result.size
            counters["boundary_matrix.nonzeros"] += int(np.count_nonzero(result))

        def superop_book(args, result):
            basis, n = args
            N = n * n
            k = len(basis.scaled)
            flops = superop_flops(n, k)
            nbytes = BYTES_PER_ENTRY * N * N * (7 * k + 1)
            counters["delta_superoperator.flops_computed"] += flops
            counters["delta_superoperator.bytes_computed"] += nbytes
            rec.work.append({"fn": "dirichlet.delta_superoperator", "job": rec.job,
                             "shape": [N, N], "entries": N * N, "basis_size": k,
                             "density": int(np.count_nonzero(result)) / (N * N),
                             "flops_computed": flops,
                             "bytes_computed": nbytes})

        def heat_book(args, result):
            t, basis, n = args
            N = n * n
            diagonal = all(not (x.mat - np.diag(np.diag(x.mat))).any() for x in basis.scaled)
            flops = heat_flops(n, diagonal)
            nbytes = BYTES_PER_ENTRY * N * N * (2 if diagonal else 4)
            counters["heat_superoperator.flops_computed"] += flops
            rec.work.append({"fn": "dirichlet.heat_superoperator", "job": rec.job,
                             "shape": [N, N], "entries": N * N,
                             "path": "diagonal" if diagonal else "eigh",
                             "density": int(np.count_nonzero(result)) / (N * N),
                             "flops_computed": flops, "bytes_computed": nbytes})

        def audit_after(args, result):
            counters["audit_semigroup.times"] += len(result.results)

        span = functools.partial(_wrap, rec)
        self._function(mods.cohomology, "numeric_rank",
                       lambda f: span("cohomology.numeric_rank", f, book=rank_book))
        self._function(mods.cohomology, "boundary_matrix",
                       lambda f: span("cohomology.boundary_matrix", f, book=boundary_book))
        self._function(mods.cohomology, "dolbeault_matrix",
                       lambda f: span("cohomology.dolbeault_matrix", f))
        for name in ("delta", "wedge", "partial", "partial_star"):
            self._function(mods.forms, name, lambda f, n=name: span(f"forms.{n}", f))
        self._method(qe, "__mul__", lambda f: span("qlattice.mul", f, after=q_mul_after))
        self._method(qe, "adjoint", lambda f: span("qlattice.adjoint", f))
        self._method(me, "__mul__", lambda f: span("matrix_algebra.mul", f))
        self._method(me, "__init__",
                     lambda f: _count_only(rec, "matrix_algebra.construct.calls", f))
        self._method(ge, "__mul__", lambda f: span("graph_algebra.mul", f, after=g_mul_after))
        self._function(mods.graph_algebra, "_term_product",
                       lambda f: _count_only(rec, "graph_algebra.term_product.tried", f,
                                             hit="graph_algebra.term_product.hits"))
        self._function(mods.dirichlet, "delta_superoperator",
                       lambda f: span("dirichlet.delta_superoperator", f, book=superop_book))
        self._function(mods.dirichlet, "heat_superoperator",
                       lambda f: span("dirichlet.heat_superoperator", f, book=heat_book))
        self._function(mods.dirichlet, "choi_matrix",
                       lambda f: span("dirichlet.choi_matrix", f))
        self._function(mods.dirichlet, "audit_semigroup",
                       lambda f: span("dirichlet.audit_semigroup", f, after=audit_after))
        self._function(mods.dirichlet, "heat_semigroup",
                       lambda f: span("dirichlet.heat_semigroup", f))
        self._function(mods.dirichlet, "carre_du_champ",
                       lambda f: span("dirichlet.carre_du_champ", f))
        self._function(mods.expr, "parse", lambda f: span("expr.parse", f))
        self._function(mods.expr, "evaluate", lambda f: span("expr.evaluate", f))
        self._function(mods.cli, "main", lambda f: span("cli.main", f))
        for name in ("torus_limit_sweep", "plane_limit_sweep", "heisenberg_limit_sweep",
                     "plane_partial_sweep"):
            self._function(mods.deformation, name, lambda f: span("deformation.sweep", f))
        self._function(mods.testing, "run_selftest",
                       lambda f: span("testing.run_selftest", f))

    def _function(self, module, name: str, make) -> None:
        """Patch every binding of module.name in every ncdiff module.

        Callers that imported the function by name (``expr`` binds
        ``forms.delta`` as ``form_delta``) hold their own reference, which
        must be replaced too or their calls go unrecorded.
        """
        orig = getattr(module, name)
        wrapper = make(orig)
        for mod in self._mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig, wrapper))

    def _method(self, cls, name: str, make) -> None:
        orig = cls.__dict__[name]
        self._patches.append((cls, name, orig, make(orig)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# (name, unit, value from (self seconds by span, calls by span, counters)),
# each per traced pass.  The names and units are those of BENCHMARK.json.
LAYER_METRICS = (
    ("cohomology.numeric_rank.self_s", "s", lambda S, C, K: S["cohomology.numeric_rank"]),
    ("cohomology.numeric_rank.calls", "count", lambda S, C, K: C["cohomology.numeric_rank"]),
    ("cohomology.numeric_rank.entries", "count", lambda S, C, K: K["numeric_rank.entries"]),
    ("cohomology.numeric_rank.density", "ratio",
     lambda S, C, K: _ratio(K["numeric_rank.nonzeros"], K["numeric_rank.entries"])),
    ("cohomology.numeric_rank.flops_computed", "flop",
     lambda S, C, K: K["numeric_rank.flops_computed"]),
    ("cohomology.numeric_rank.bytes_computed", "B",
     lambda S, C, K: K["numeric_rank.bytes_computed"]),
    ("cohomology.boundary_matrix.self_s", "s", lambda S, C, K: S["cohomology.boundary_matrix"]),
    ("cohomology.boundary_matrix.calls", "count",
     lambda S, C, K: C["cohomology.boundary_matrix"]),
    ("cohomology.boundary_matrix.density", "ratio",
     lambda S, C, K: _ratio(K["boundary_matrix.nonzeros"], K["boundary_matrix.entries"])),
    ("cohomology.dolbeault_matrix.self_s", "s",
     lambda S, C, K: S["cohomology.dolbeault_matrix"]),
    ("forms.delta.self_s", "s", lambda S, C, K: S["forms.delta"]),
    ("forms.delta.calls", "count", lambda S, C, K: C["forms.delta"]),
    ("forms.wedge.self_s", "s", lambda S, C, K: S["forms.wedge"]),
    ("forms.wedge.calls", "count", lambda S, C, K: C["forms.wedge"]),
    ("qlattice.mul.self_s", "s", lambda S, C, K: S["qlattice.mul"]),
    ("qlattice.mul.calls", "count", lambda S, C, K: C["qlattice.mul"]),
    ("qlattice.mul.term_pairs", "count", lambda S, C, K: K["qlattice.mul.term_pairs"]),
    ("qlattice.mul.merge_ratio", "ratio",
     lambda S, C, K: _ratio(K["qlattice.mul.out_terms"], K["qlattice.mul.term_pairs"])),
    ("qlattice.adjoint.self_s", "s", lambda S, C, K: S["qlattice.adjoint"]),
    ("qlattice.adjoint.calls", "count", lambda S, C, K: C["qlattice.adjoint"]),
    ("matrix_algebra.mul.self_s", "s", lambda S, C, K: S["matrix_algebra.mul"]),
    ("matrix_algebra.mul.calls", "count", lambda S, C, K: C["matrix_algebra.mul"]),
    ("matrix_algebra.construct.calls", "count",
     lambda S, C, K: K["matrix_algebra.construct.calls"]),
    ("graph_algebra.mul.self_s", "s", lambda S, C, K: S["graph_algebra.mul"]),
    ("graph_algebra.mul.calls", "count", lambda S, C, K: C["graph_algebra.mul"]),
    ("graph_algebra.mul.term_pairs", "count",
     lambda S, C, K: K["graph_algebra.mul.term_pairs"]),
    ("graph_algebra.mul.hit_ratio", "ratio",
     lambda S, C, K: _ratio(K["graph_algebra.term_product.hits"],
                            K["graph_algebra.term_product.tried"])),
    ("dirichlet.delta_superoperator.self_s", "s",
     lambda S, C, K: S["dirichlet.delta_superoperator"]),
    ("dirichlet.delta_superoperator.calls", "count",
     lambda S, C, K: C["dirichlet.delta_superoperator"]),
    ("dirichlet.delta_superoperator.builds_per_time", "ratio",
     lambda S, C, K: _ratio(C["dirichlet.delta_superoperator"], K["audit_semigroup.times"])),
    ("dirichlet.delta_superoperator.flops_computed", "flop",
     lambda S, C, K: K["delta_superoperator.flops_computed"]),
    ("dirichlet.delta_superoperator.bytes_computed", "B",
     lambda S, C, K: K["delta_superoperator.bytes_computed"]),
    ("dirichlet.heat_superoperator.self_s", "s",
     lambda S, C, K: S["dirichlet.heat_superoperator"]),
    ("dirichlet.heat_superoperator.flops_computed", "flop",
     lambda S, C, K: K["heat_superoperator.flops_computed"]),
    ("dirichlet.choi_matrix.self_s", "s", lambda S, C, K: S["dirichlet.choi_matrix"]),
    ("dirichlet.audit_semigroup.self_s", "s", lambda S, C, K: S["dirichlet.audit_semigroup"]),
    ("dirichlet.heat_semigroup.self_s", "s", lambda S, C, K: S["dirichlet.heat_semigroup"]),
    ("dirichlet.carre_du_champ.self_s", "s", lambda S, C, K: S["dirichlet.carre_du_champ"]),
    ("expr.parse.self_s", "s", lambda S, C, K: S["expr.parse"]),
    ("expr.evaluate.self_s", "s", lambda S, C, K: S["expr.evaluate"]),
    ("cli.main.self_s", "s", lambda S, C, K: S["cli.main"]),
    ("cli.stdout_bytes", "B", lambda S, C, K: K["cli.stdout_bytes"]),
    ("deformation.sweep.self_s", "s", lambda S, C, K: S["deformation.sweep"]),
    ("testing.run_selftest.self_s", "s", lambda S, C, K: S["testing.run_selftest"]),
    ("trace.unattributed_s", "s", lambda S, C, K: S["job"]),
    ("trace.bookkeeping_s", "s", lambda S, C, K: S[BOOKKEEPING]),
)
