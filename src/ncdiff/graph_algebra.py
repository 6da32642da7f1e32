"""Symbolic Cuntz-Krieger algebra of a finite directed graph.

Elements are complex combinations of terms ``s_mu s_nu^*`` where mu, nu are
finite paths with a common range vertex; a vertex counts as the length-0
path and ``s_v`` is the vertex projection ``p_v``.  Products reduce by the
prefix-cancellation rules (``s_e^* s_f = 0`` for e != f, ``s_e^* s_e =
p_{r(e)}``); the completeness relation ``p_v = sum s_e s_e^*`` is applied
only on demand with a bounded expansion depth, since unrestricted rewriting
does not terminate on graphs with loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .carrier import PRUNE_EPSILON, Terms


@dataclass(frozen=True)
class Path:
    """Directed path: source vertex, edge-name sequence, range vertex.

    Build through :meth:`DirectedGraph.path` / :meth:`DirectedGraph.vertex_path`
    so composability is checked.
    """
    source: str
    edges: tuple
    range: str

    def __len__(self):
        return len(self.edges)

    def __repr__(self):
        body = ".".join(self.edges) if self.edges else self.source
        return f"Path({body}:{self.source}->{self.range})"


CKTerm = tuple  # (mu: Path, nu: Path) with mu.range == nu.range, meaning s_mu s_nu^*


class DirectedGraph:
    """Finite directed graph with named vertices and edges."""

    def __init__(self, vertices: Iterable[str], edges: Mapping[str, tuple[str, str]]):
        self.vertices = tuple(dict.fromkeys(vertices))
        vset = set(self.vertices)
        self.edges = {}
        for name, (src, rng) in edges.items():
            if src not in vset or rng not in vset:
                raise ValueError(f"edge {name}: {src}->{rng} uses undeclared vertices")
            self.edges[name] = (str(src), str(rng))
        self._out = {v: tuple(e for e, (s, _) in self.edges.items() if s == v)
                     for v in self.vertices}

    def source(self, edge: str) -> str:
        return self.edges[edge][0]

    def range(self, edge: str) -> str:
        return self.edges[edge][1]

    def out_edges(self, v: str) -> tuple:
        return self._out[v]

    def is_sink(self, v: str) -> bool:
        return not self._out[v]

    def has_loops(self) -> bool:
        """True when the graph contains a directed cycle."""
        color = {v: 0 for v in self.vertices}

        def visit(v):
            color[v] = 1
            for e in self._out[v]:
                w = self.range(e)
                if color[w] == 1 or (color[w] == 0 and visit(w)):
                    return True
            color[v] = 2
            return False

        return any(color[v] == 0 and visit(v) for v in self.vertices)

    # -- paths -------------------------------------------------------------

    def vertex_path(self, v: str) -> Path:
        if v not in self._out:
            raise ValueError(f"unknown vertex {v}")
        return Path(v, (), v)

    def path(self, edge_names: Sequence[str]) -> Path:
        names = tuple(edge_names)
        if not names:
            raise ValueError("empty edge list; use vertex_path for length-0 paths")
        for e in names:
            if e not in self.edges:
                raise ValueError(f"unknown edge {e}")
        for a, b in zip(names, names[1:]):
            if self.range(a) != self.source(b):
                raise ValueError(f"edges {a},{b} do not compose")
        return Path(self.source(names[0]), names, self.range(names[-1]))

    def extend(self, p: Path, edge: str) -> Path:
        if self.source(edge) != p.range:
            raise ValueError(f"edge {edge} does not extend {p}")
        return Path(p.source, p.edges + (edge,), self.range(edge))

    def paths_up_to(self, max_len: int) -> list[Path]:
        """All paths of length 0..max_len."""
        out = [self.vertex_path(v) for v in self.vertices]
        frontier = list(out)
        for _ in range(max_len):
            nxt = []
            for p in frontier:
                for e in self._out[p.range]:
                    nxt.append(self.extend(p, e))
            out.extend(nxt)
            frontier = nxt
            if not frontier:
                break
        return out

    def __repr__(self):
        return f"DirectedGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


def common_range_pairs(graph: DirectedGraph, max_len: int) -> list[CKTerm]:
    """Term keys (mu, nu) with a common range and |mu|, |nu| <= max_len.

    Grouped by range vertex, in the order the ranges first appear among
    ``graph.paths_up_to(max_len)``, and in path order within each group.
    """
    by_range: dict = {}
    for p in graph.paths_up_to(max_len):
        by_range.setdefault(p.range, []).append(p)
    return [(mu, nu) for group in by_range.values() for mu in group for nu in group]


def parse_graph(text: str) -> DirectedGraph:
    """Parse the one-declaration-per-line graph format.

    Lines are ``vertex <name>`` or ``edge <name> <source> <range>``;
    ``#`` starts a comment.
    """
    vertices: list[str] = []
    edges: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            edges[parts[1]] = (parts[2], parts[3])
        else:
            raise ValueError(f"line {ln}: cannot parse {raw!r}")
    return DirectedGraph(vertices, edges)


def graph_to_text(g: DirectedGraph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e} {s} {r}" for e, (s, r) in g.edges.items()]
    return "\n".join(lines) + "\n"


class GraphElement(Terms):
    """Complex combination of terms s_mu s_nu^* over a fixed graph."""

    __slots__ = ("graph", "terms")

    def __init__(self, graph: DirectedGraph,
                 terms: Mapping[CKTerm, complex] | None = None):
        tt = {}
        for (mu, nu), c in (terms or {}).items():
            if mu.range != nu.range:
                raise ValueError(f"term ({mu}, {nu}) violates the common-range condition")
            c = complex(c)
            if not abs(c) <= PRUNE_EPSILON:  # keeps a nan for the finiteness checks
                tt[(mu, nu)] = c
        self.graph = graph
        self.terms = tt

    def _like(self, terms: dict) -> "GraphElement":
        """Element over the same graph: terms already canonical, only prunes."""
        out = object.__new__(GraphElement)
        out.graph = self.graph
        out.terms = {t: c for t, c in terms.items() if not abs(c) <= PRUNE_EPSILON}
        return out

    @classmethod
    def zero(cls, graph) -> "GraphElement":
        return cls(graph, {})

    @classmethod
    def term(cls, graph, mu: Path, nu: Path, coeff: complex = 1.0) -> "GraphElement":
        return cls(graph, {(mu, nu): coeff})

    def _check(self, other):
        if self.graph is not other.graph:
            raise ValueError("elements live over different graphs")

    def __mul__(self, other):
        if isinstance(other, GraphElement):
            self._check(other)
            out: dict = {}
            for t1, c1 in self.terms.items():
                for t2, c2 in other.terms.items():
                    t = _term_product(t1, t2)
                    if t is not None:
                        out[t] = out.get(t, 0j) + c1 * c2
            return self._like(out)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def adjoint(self) -> "GraphElement":
        return self._like({(nu, mu): c.conjugate() for (mu, nu), c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "GraphElement(0)"
        bits = []
        for (mu, nu), c in list(self.terms.items())[:6]:
            bits.append(f"({c:.4g})*s[{'.'.join(mu.edges) or mu.source}]"
                        f"s[{'.'.join(nu.edges) or nu.source}]*")
        more = "..." if len(self.terms) > 6 else ""
        return "GraphElement(" + " + ".join(bits) + more + ")"


def vertex_projection(graph: DirectedGraph, v: str) -> GraphElement:
    p = graph.vertex_path(v)
    return GraphElement.term(graph, p, p)


def edge_isometry(graph: DirectedGraph, e: str) -> GraphElement:
    mu = graph.path([e])
    return GraphElement.term(graph, mu, graph.vertex_path(mu.range))


def path_isometry(graph: DirectedGraph, mu: Path) -> GraphElement:
    return GraphElement.term(graph, mu, graph.vertex_path(mu.range))


def unit(graph: DirectedGraph) -> GraphElement:
    """The algebra unit sum_v p_v of a finite graph."""
    out = GraphElement.zero(graph)
    for v in graph.vertices:
        out = out + vertex_projection(graph, v)
    return out


def _strip_prefix(alpha: Path, nu: Path) -> Path | None:
    """gamma with alpha = nu gamma, or None when nu is not a prefix of alpha."""
    if alpha.source != nu.source:
        return None
    k = len(nu.edges)
    if alpha.edges[:k] != nu.edges:
        return None
    return Path(nu.range, alpha.edges[k:], alpha.range)


def _concat(mu: Path, gamma: Path) -> Path:
    return Path(mu.source, mu.edges + gamma.edges, gamma.range)


def _term_product(t1: CKTerm, t2: CKTerm) -> CKTerm | None:
    """(s_mu s_nu^*)(s_alpha s_beta^*) as a single term, or None for zero."""
    mu, nu = t1
    alpha, beta = t2
    gamma = _strip_prefix(alpha, nu)
    if gamma is not None:
        return (_concat(mu, gamma), beta)
    gamma = _strip_prefix(nu, alpha)
    if gamma is not None:
        return (mu, _concat(beta, gamma))
    return None


def vertex_commutator(v: str, x: GraphElement) -> GraphElement:
    """[p_v, x], computed termwise.

    For a term s_mu s_nu^* only the source vertices act:
    the coefficient picks up +1 at v = s(mu), -1 at v = s(nu).
    """
    out: dict = {}
    for (mu, nu), c in x.terms.items():
        sign = (1 if mu.source == v else 0) - (1 if nu.source == v else 0)
        if sign:
            out[(mu, nu)] = out.get((mu, nu), 0j) + sign * c
    return x._like(out)


def is_closed(t: CKTerm) -> bool:
    """True when the term has matching sources (its derivative vanishes)."""
    mu, nu = t
    return mu.source == nu.source and mu.range == nu.range


def full_isometry_criterion(graph: DirectedGraph, mu: Path) -> bool:
    """True when every vertex of mu except the range has a single exit.

    In that case s_mu s_mu^* = p_{s(mu)}: each source along the path emits
    only its own edge, so the completeness relation telescopes.
    """
    if len(mu) < 1:
        raise ValueError("criterion needs a path of length >= 1")
    for e in mu.edges:
        if graph.out_edges(graph.source(e)) != (e,):
            return False
    return True


def expand_projection_check(graph: DirectedGraph, mu: Path) -> bool:
    """Verify s_mu s_mu^* = p_{s(mu)} by bounded completeness expansion.

    Starting from p_{s(mu)}, substitute p_v = sum_{s(e)=v} s_e s_e^* at the
    inner vertex of every term, |mu| times, and compare with s_mu s_mu^*.
    """
    x = vertex_projection(graph, mu.source)
    for _ in range(len(mu)):
        out: dict = {}
        for (a, b), c in x.terms.items():
            v = a.range
            if graph.is_sink(v):
                out[(a, b)] = out.get((a, b), 0j) + c
                continue
            for e in graph.out_edges(v):
                t = (graph.extend(a, e), graph.extend(b, e))
                out[t] = out.get(t, 0j) + c
        x = x._like(out)
    return x.equal_within(GraphElement.term(graph, mu, mu))


def _no_exit_loops(graph: DirectedGraph) -> list[Path]:
    """Simple loops on which every vertex has the loop edge as its only exit."""
    single = {v: graph.out_edges(v)[0] for v in graph.vertices
              if len(graph.out_edges(v)) == 1}
    loops = []
    seen: set = set()
    for start in single:
        if start in seen:
            continue
        trail = []
        pos = {}
        v = start
        while v in single and v not in pos:
            pos[v] = len(trail)
            trail.append(single[v])
            v = graph.range(single[v])
        if v in pos:
            cycle_edges = trail[pos[v]:]
            cycle_vertices = {graph.source(e) for e in cycle_edges}
            if not cycle_vertices & seen:
                loops.append(graph.path(cycle_edges))
                seen |= cycle_vertices
        seen.update(pos)
    return loops


def _merged_projection_count(graph: DirectedGraph, max_len: int) -> int:
    """Distinct projections s_mu s_mu^*, |mu| <= max_len, merged when the
    single-exit criterion collapses a tail.

    Canonical representative: strip trailing edges while the last edge's
    source has a single exit; a fully stripped path collapses to its source
    vertex projection.
    """
    reps = set()
    for mu in graph.paths_up_to(max_len):
        edges = list(mu.edges)
        while edges and graph.out_edges(graph.source(edges[-1])) == (edges[-1],):
            edges.pop()
        reps.add((mu.source, tuple(edges)))
    return len(reps)


def h0_report(graph: DirectedGraph, max_len: int) -> dict:
    """Degree-zero survey of the closed part of the algebra.

    Returns all closed terms with |mu|, |nu| <= max_len; for loop-free
    graphs the merged projection count (a tree with one sink yields exactly
    the vertex count); and one flag per simple no-exit loop, each of which
    generates a copy of the continuous functions on the circle.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    closed = [(mu, nu) for mu, nu in common_range_pairs(graph, max_len)
              if mu.source == nu.source]
    loop_free = not graph.has_loops()
    report = {
        "closed_terms": closed,
        "projection_count": _merged_projection_count(graph, max_len) if loop_free else None,
        "circle_flags": _no_exit_loops(graph),
    }
    return report


def _path_json(p: Path) -> dict:
    return {"source": p.source, "edges": list(p.edges), "range": p.range}


def h0_report_json(report: dict) -> dict:
    return {
        "closed_terms": [{"mu": _path_json(mu), "nu": _path_json(nu)}
                         for mu, nu in report["closed_terms"]],
        "projection_count": report["projection_count"],
        "circle_flags": [{"loop": _path_json(p)} for p in report["circle_flags"]],
    }
