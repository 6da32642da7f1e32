"""Symbolic Cuntz-Krieger algebra of a finite directed graph.

Elements are complex combinations of terms ``s_mu s_nu^*`` where mu, nu are
finite paths with a common range vertex; a vertex counts as the length-0
path and ``s_v`` is the vertex projection ``p_v``.  Products reduce by the
prefix-cancellation rules (``s_e^* s_f = 0`` for e != f, ``s_e^* s_e =
p_{r(e)}``); the completeness relation ``p_v = sum s_e s_e^*`` is applied
only on demand with a bounded expansion depth, since unrestricted rewriting
does not terminate on graphs with loops.

An element is a term carrier (:class:`~ncdiff.carrier.HeldTerms`): it
holds its terms as a dict keyed by pairs of paths, as int64 path codes (the
codes of mu and nu of each term, see :func:`_term_codes`) with complex
coefficients, or both.  This module states the algebra and the coding.
Paths come back from codes only when ``terms`` is read, for I/O and for the
loops.  An element with a path foreign to the graph, or with a path too
long for int64 codes, is held only as a dict and always takes the loops.

A product has two routes.  Up to ``_ARRAY_PAIRS`` term pairs, a Python loop
takes the pairs one by one (:func:`_pair_product` over
:func:`_term_product`).  Above that cut, :func:`_array_product` matches the
codes of nu against the prefixes of every alpha and the prefixes of every nu
against alpha in numpy, and sums the coefficients by term code.  The cut
sits near the measured crossover (16 x 16 terms on the 4-cycle).  Operands
that cannot be coded, or whose product codes would not fit in int64, take
the loop at any size.

Sums and differences take the array route when both operands hold codes,
and negation, scaling, norms and adjoints when their operand does; the
loops take everything else, among it the commutator with a scaled vertex
projection, which reads the paths of ``keyed()``.  Coding a dict costs more
than these loops, and decoding codes more than coding.  Sums merge sorted
term codes (``HeldTerms._array_merge`` in :mod:`ncdiff.carrier`) and the
adjoint swaps the two codes of each term: both give the loops' coefficients
bit for bit.  Elements built from dicts, such as every operand of
``selftest`` and of the CLI's graph commands, keep the loops and their
results bit for bit up to the product cut.  The loops are the oracle that
the tests hold the array routes to.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .carrier import PRUNE_EPSILON, HeldTerms, _KeyedBasis, _new_tuple, _Node, frozen, sum_by_code


class Path(_Node):
    """Directed path: source vertex, edge-name sequence, range vertex.

    Build through :meth:`DirectedGraph.path` / :meth:`DirectedGraph.vertex_path`
    so composability is checked.
    """

    def __new__(cls, source: str, edges: tuple, range: str):
        return _new_tuple(cls, (cls, source, edges, range))

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
        out: dict = {v: [] for v in self.vertices}
        self.edges = {}
        for name, (src, rng) in edges.items():
            if src not in out or rng not in out:
                raise ValueError(f"edge {name}: {src}->{rng} uses undeclared vertices")
            self.edges[name] = (src, rng)  # as the vertices are named
            out[src].append(name)
        self._out = {v: tuple(es) for v, es in out.items()}
        # int64 path codes (see _term_codes): pw[L] = base**L and off[L], the
        # number of codes of the paths shorter than L, for the lengths whose
        # codes stay below _CODE_LIMIT
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._edge_rows = {e: (i, s, r) for i, (e, (s, r)) in enumerate(self.edges.items())}
        self._edge_names = tuple(self.edges)
        self._base = base = max(len(self.edges), 1)
        n = len(self.vertices)
        pw, off = [1], [0, n]
        while len(pw) < _CODED_LENGTHS and off[-1] + n * pw[-1] * base <= _CODE_LIMIT:
            pw.append(pw[-1] * base)
            off.append(off[-1] + n * pw[-1])
        self._pw, self._off = pw, off
        self._pw_a, self._off_a = np.array(pw, np.int64), np.array(off, np.int64)

    def source(self, edge: str) -> str:
        return self.edges[edge][0]

    def range(self, edge: str) -> str:
        return self.edges[edge][1]

    def out_edges(self, v: str) -> tuple:
        return self._out[v]

    def is_sink(self, v: str) -> bool:
        return not self._out[v]

    def has_loops(self) -> bool:
        """True when the graph contains a directed cycle: exactly then does peeling
        off vertices with no incoming edge, one at a time, leave a vertex unpeeled."""
        indegree = Counter(r for _, r in self.edges.values())
        peeled = [v for v in self.vertices if not indegree[v]]
        for v in peeled:  # grows while it is read
            for e in self._out[v]:
                r = self.range(e)
                indegree[r] -= 1
                if not indegree[r]:
                    peeled.append(r)
        return len(peeled) < len(self.vertices)

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
        """All paths of length 0..max_len: a ValueError, before a length is built, where
        they would pass ``_MAX_PATH_ENTRIES`` entries, a path of length k counting k + 1."""
        out = [self.vertex_path(v) for v in self.vertices]
        frontier, size = list(out), len(out)
        for k in range(1, max_len + 1):
            size += (k + 1) * sum(len(self._out[p.range]) for p in frontier)
            if size > _MAX_PATH_ENTRIES:
                raise ValueError(f"max_len {max_len} has {size} > {_MAX_PATH_ENTRIES} path entries")
            frontier = [self.extend(p, e) for p in frontier for e in self._out[p.range]]
            out.extend(frontier)
            if not frontier:
                break
        return out

    def __repr__(self):
        return f"DirectedGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


def common_range_pairs(graph: DirectedGraph, max_len: int) -> list[CKTerm]:
    """Term keys (mu, nu) with a common range and |mu|, |nu| <= max_len.

    Grouped by range vertex, in the order the ranges first appear among
    ``graph.paths_up_to(max_len)``, and in path order within each group.  A
    ValueError, before any key is built, above ``_MAX_CARRIER_KEYS`` (2^20) keys.
    """
    by_range: dict = {}
    for p in graph.paths_up_to(max_len):
        by_range.setdefault(p.range, []).append(p)
    keys = sum(len(group) ** 2 for group in by_range.values())
    if keys > _MAX_CARRIER_KEYS:
        raise ValueError(f"max_len {max_len}: {keys} > {_MAX_CARRIER_KEYS} common-range pairs")
    return [(mu, nu) for group in by_range.values() for mu in group for nu in group]


def parse_graph(text: str) -> DirectedGraph:
    """Parse the one-declaration-per-line graph format.

    Lines are ``vertex <name>`` or ``edge <name> <source> <range>``;
    ``#`` starts a comment.  An edge name may be declared only once.
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
            if parts[1] in edges:
                raise ValueError(f"line {ln}: duplicate edge {parts[1]!r}")
            edges[parts[1]] = (parts[2], parts[3])
        else:
            raise ValueError(f"line {ln}: cannot parse {raw!r}")
    return DirectedGraph(vertices, edges)


def graph_to_text(g: DirectedGraph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e} {s} {r}" for e, (s, r) in g.edges.items()]
    return "\n".join(lines) + "\n"


# Products with more term pairs than this take the array route; both routes
# took the same time near 16 x 16 terms on the 4-cycle.
_ARRAY_PAIRS = 256
# Path codes stay below this, and coded paths have fewer edges than
# _CODED_LENGTHS (which bounds the tables of a graph with one edge).
_CODE_LIMIT = 2 ** 62
_CODED_LENGTHS = 64
# Bounds on the JSON lines of an h0 report (about 150 bytes each to print), on path entries
# and on the keys of a common-range key set (about 180 bytes each to hold).
_MAX_H0_LINES, _MAX_PATH_ENTRIES, _MAX_CARRIER_KEYS = 2 ** 23, 2 ** 20, 2 ** 20


class GraphElement(HeldTerms):
    """Complex combination of terms s_mu s_nu^* over a fixed graph."""

    __slots__ = ("graph", "_terms", "_keyed")
    parent_name = "graph"

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
        self._terms = tt
        self._keyed = None

    def _over(self, terms) -> "GraphElement":
        out = object.__new__(GraphElement)
        out.graph = self.graph
        out._terms = terms
        out._keyed = None
        return out

    _eps = property(lambda self: PRUNE_EPSILON)  # the module's value at call time

    @classmethod
    def term(cls, graph, mu: Path, nu: Path, coeff: complex = 1.0) -> "GraphElement":
        return cls(graph, {(mu, nu): coeff})

    def _check(self, other):
        if self.graph is not other.graph:
            raise ValueError("elements live over different graphs")

    def __mul__(self, other):
        if isinstance(other, GraphElement):
            self._check(other)
            if self._keyed or other._keyed:
                pairs = self._size() * other._size()
            else:
                pairs = len(self.terms) * len(other.terms)
            if pairs > _ARRAY_PAIRS:
                return _array_product(self, other)
            return self._like(_pair_product(self.terms, other.terms))
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def keyed(self):
        """The term keys (mu, nu) and their coefficients, as lists."""
        return list(self.terms), list(self.terms.values())

    def _from_keys(self, keys, coeffs) -> "GraphElement":
        if isinstance(coeffs, np.ndarray):
            coeffs = coeffs.tolist()  # Python complex, as every other route holds
        return self._over({k: c for k, c in zip(keys, coeffs) if not abs(c) <= PRUNE_EPSILON})

    def _encode(self):
        K = _term_codes(self.graph, self.terms)
        return None if K is None else frozen(K, np.fromiter(self.terms.values(), complex, len(K)))

    def _decode(self) -> dict:
        """The terms of the held codes, each distinct path built once."""
        K, coeffs = self._keyed
        graph, codes = self.graph, np.unique(K)
        L, S, D = _split(graph, codes)
        k = np.arange(int(L.max()) if len(L) else 0)
        # edge k of a path of length L (k < L) is the digit D // base**(L-1-k) % base
        digits = D[:, None] // graph._pw_a[np.maximum(L[:, None] - 1 - k, 0)] % graph._base
        paths = []
        for n, s, row in zip(L.tolist(), S.tolist(), digits.tolist()):
            edges = tuple(graph._edge_names[e] for e in row[:n])
            source = graph.vertices[s]
            paths.append(Path(source, edges, graph.edges[edges[-1]][1] if n else source))
        mu, nu = np.searchsorted(codes, K.T).tolist()
        return {(paths[i], paths[j]): c for i, j, c in zip(mu, nu, coeffs.tolist())}

    def _sum_codes(self, cols):
        """code(mu) size + code(nu), with ``size`` one more than the largest
        path code, or None when that does not fit in int64."""
        size = int(cols.max()) + 1
        return None if size * size > 2 ** 63 else cols[0] * size + cols[1]

    def diagonal_action(self):
        """For a scaled vertex projection c p_v: :func:`_vertex_action`.
        None for any other element."""
        if self._size() == 1:
            ((mu, nu), c), = self.terms.items()
            if mu == nu and not mu.edges:
                return _vertex_action(mu.source, c)
        return None

    @classmethod
    def family_ad(cls, family: list, actions: list):
        """One pass over the terms a s_mu s_nu^* of ``a``: with s(mu) != s(nu), to
        the slots c_j p_v with v = s(mu) as c_j a and with v = s(nu) as -(a c_j),
        as their held :func:`_vertex_action` weighs them, pruned; None elsewhere."""
        x, slots = family[0], {}
        vcs = [getattr(act, "vertex", None) for act in actions]
        for j, vc in enumerate(vcs):
            if vc:
                slots.setdefault(vc[0], []).append((j, vc[1]))

        def hook(a):
            if isinstance(a, GraphElement):
                x._check(a)
                parts = [vc and {} for vc in vcs]
                for key, t in a.terms.items():
                    s, r = key[0].source, key[1].source
                    if s != r:
                        for j, c in slots.get(s, ()):
                            if not abs(w := c * t) <= PRUNE_EPSILON:
                                parts[j][key] = w
                        for j, c in slots.get(r, ()):
                            if not abs(w := -(t * c)) <= PRUNE_EPSILON:
                                parts[j][key] = w
                return parts
        return hook

    def adjoint(self) -> "GraphElement":
        if self._keyed:
            K, coeffs = self._keyed
            return self._held(K[:, ::-1], coeffs.conj())
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


class GraphCarrierBasis(_KeyedBasis):
    """Common-range path pairs with both lengths <= max_len as coordinates."""

    def __init__(self, graph: DirectedGraph, max_len: int):
        self.graph = graph
        self.max_len = max_len = self._checked_size(max_len, "max_len")
        super().__init__(GraphElement(graph), common_range_pairs(graph, max_len))
        self._index = {k: i for i, k in enumerate(self.keys)}
        self.description = f"graph terms |mu|,|nu|<={max_len}"

    def _rows(self, keys: list) -> np.ndarray:
        return np.array([self._index.get(k, -1) for k in keys], dtype=np.intp)


def vertex_projection(graph: DirectedGraph, v: str) -> GraphElement:
    p = graph.vertex_path(v)
    return GraphElement.term(graph, p, p)


def edge_isometry(graph: DirectedGraph, e: str) -> GraphElement:
    return path_isometry(graph, graph.path([e]))


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


def _pair_product(ta: dict, tb: dict) -> dict:
    """Unpruned terms of the product, one term pair at a time."""
    out: dict = {}
    for t1, c1 in ta.items():
        for t2, c2 in tb.items():
            t = _term_product(t1, t2)
            if t is not None:
                out[t] = out.get(t, 0j) + c1 * c2
    return out


def _term_codes(graph: DirectedGraph, terms) -> np.ndarray | None:
    """The codes of mu and nu in each term key, as int64 rows in column-major
    order, or None when a path is not a path of ``graph`` or has
    ``_CODED_LENGTHS`` edges or more.

    A path of length L from the vertex of index s has the code
    ``off[L] + s base**L + D``, where ``base = max(|E|, 1)``, ``off[L]`` is
    the number of codes of the shorter paths and the digits D are its edge
    indices in base ``base``, first edge most significant: its prefix of
    length k has digits ``D // base**(L-k)``.
    """
    vertex_index, edge_rows, base = graph._vertex_index, graph._edge_rows, graph._base
    pw, off = graph._pw, graph._off
    codes: dict = {}  # keyed by id, which is unique while ``terms`` holds the paths
    out = []
    for t in terms:
        for p in t:
            code = codes.get(id(p))
            if code is None:
                s, L = vertex_index.get(p.source), len(p.edges)
                if s is None or L >= len(pw):
                    return None
                v, d = p.source, 0
                for e in p.edges:
                    row = edge_rows.get(e)
                    if row is None or row[1] != v:
                        return None
                    d = d * base + row[0]
                    v = row[2]
                if v != p.range:
                    return None
                code = codes[id(p)] = off[L] + s * pw[L] + d
            out.append(code)
    return np.asfortranarray(np.array(out, np.int64).reshape(-1, 2))


def _split(graph: DirectedGraph, codes: np.ndarray):
    """Length, source index and digits of the paths with int64 ``codes``."""
    L = np.searchsorted(graph._off_a, codes, "right") - 1
    S, D = np.divmod(codes - graph._off_a[L], graph._pw_a[L])
    return L, S, D


def _array_product(a: GraphElement, b: GraphElement) -> GraphElement:
    """The product of two elements by a prefix join, in numpy; the result is
    held as arrays.

    A term s_mu s_nu^* of (s_mu s_nu^*)(s_alpha s_beta^*) arises when nu is
    a prefix of alpha, giving s_{mu (alpha - nu)} s_beta^*, and when alpha is
    a proper prefix of nu, giving s_mu s_{beta (nu - alpha)}^*: each case
    joins the codes (:func:`_term_codes`) of one side's prefixes to the codes
    of the other side's paths.  A term is coded as ``code(mu) size +
    code(nu)``, with ``size`` the number of path codes up to the longest
    output length.  When ``size**2`` exceeds int64, or an operand cannot be
    coded, the pair loop runs instead.
    """
    graph = a.graph
    ka, kb = a._arrays(), b._arrays()
    if ka is None or kb is None:
        return a._like(_pair_product(a.terms, b.terms))
    (A, ca), (B, cb) = ka, kb
    if not len(ca) or not len(cb):
        return GraphElement(graph)
    (Lm, Ln), (Sm, Sn), (Dm, Dn) = _split(graph, A.T)
    (La, Lb), (Sa, Sb), (Da, Db) = _split(graph, B.T)
    longest = int(max(Lm.max() + La.max(), Lb.max() + Ln.max()))
    if longest >= len(graph._pw) or graph._off[longest + 1] ** 2 > 2 ** 63:
        return a._like(_pair_product(a.terms, b.terms))
    size = graph._off[longest + 1]
    pw_a, off_a = graph._pw_a, graph._off_a

    def code(L, S, D):
        return off_a[L] + S * pw_a[L] + D

    # nu a prefix of alpha: s_{mu (alpha - nu)} s_beta^*
    j, k, Dp = _prefixes(La, Da, pw_a, proper=False)
    I1, m = _join(code(k, Sa[j], Dp), A[:, 1])
    J1, r = j[m], La[j[m]] - k[m]
    codes1 = code(Lm[I1] + r, Sm[I1], Dm[I1] * pw_a[r] + Da[J1] % pw_a[r]) * size + B[J1, 1]
    # alpha a proper prefix of nu: s_mu s_{beta (nu - alpha)}^*
    i, k, Dp = _prefixes(Ln, Dn, pw_a, proper=True)
    m, J2 = _join(B[:, 0], code(k, Sn[i], Dp))
    I2, r = i[m], Ln[i[m]] - k[m]
    codes2 = A[I2, 0] * size + code(Lb[J2] + r, Sb[J2], Db[J2] * pw_a[r] + Dn[I2] % pw_a[r])
    I, J = np.concatenate([I1, I2]), np.concatenate([J1, J2])
    # overflowing coefficients give inf and nan without a warning, as in the loop
    with np.errstate(over="ignore", invalid="ignore"):
        codes, vals = sum_by_code(np.concatenate([codes1, codes2]), ca[I] * cb[J])
    return a._held(np.stack(np.divmod(codes, size)).T, vals)


def _prefixes(L, D, pw, proper: bool):
    """Row, length k and digits of every prefix of every path (k <= L, or
    k < L when ``proper``)."""
    n = L if proper else L + 1
    row = np.repeat(np.arange(len(L)), n)
    k = np.arange(len(row)) - np.repeat(np.cumsum(n) - n, n)
    return row, k, D[row] // pw[L[row] - k]


def _join(keys, probes):
    """All index pairs (p, q) with ``probes[p] == keys[q]``."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    lo = np.searchsorted(sorted_keys, probes, "left")
    n = np.searchsorted(sorted_keys, probes, "right") - lo
    p = np.repeat(np.arange(len(probes)), n)
    return p, order[np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(len(p))]


def _vertex_action(v: str, c: complex):
    """(keys, coeffs) -> (keys, weights) of [c p_v, .] on term keys (mu, nu): only
    sources act, so a term a s_mu s_nu^* weighs ([v = s(mu)] - [v = s(nu)]) c a.
    ``act.vertex`` is (v, c)."""
    def act(keys, coeffs):
        return keys, [(c * a if mu.source == v else -(a * c))
                      if (mu.source == v) != (nu.source == v) else 0j
                      for (mu, nu), a in zip(keys, coeffs)]
    act.vertex = v, c
    return act


def vertex_commutator(v: str, x: GraphElement, coeff: complex = 1.0) -> GraphElement:
    """[coeff p_v, x], computed termwise by :func:`_vertex_action`; raises
    ``ValueError`` for a vertex not in the graph of x."""
    x.graph.vertex_path(v)
    return x._from_keys(*_vertex_action(v, coeff)(*x.keyed()))


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
    """Simple loops on which every vertex has the loop edge as its only exit: each
    single-exit chain is walked once, up to where an earlier walk has been, and a
    walk that closes on itself gives a loop from its first repeated vertex."""
    single = {v: out[0] for v, out in graph._out.items() if len(out) == 1}
    loops, seen = [], set()
    for start in single:
        v, pos, trail = start, {}, []
        while v in single and v not in seen:
            seen.add(v)
            pos[v] = len(trail)
            trail.append(single[v])
            v = graph.range(trail[-1])
        if v in pos:
            loops.append(graph.path(trail[pos[v]:]))
    return loops


def h0_report(graph: DirectedGraph, max_len: int) -> dict:
    """Degree-zero survey of the closed part of the algebra.

    Returns all closed terms with |mu|, |nu| <= max_len; for loop-free
    graphs the merged projection count (a tree with one sink yields exactly
    the vertex count); and one flag per simple no-exit loop, each of which
    generates a copy of the continuous functions on the circle.  Stripping
    single-exit tails merges the projections s_mu s_mu^* onto the vertex paths
    and the paths whose last edge leaves a vertex of several exits, so the
    count is theirs among the listed paths.  A ValueError, before any term is
    built, where the terms would print more than ``_MAX_H0_LINES`` (2^23)
    lines of JSON, 14 + |mu| + |nu| each at most.
    """
    max_len = _KeyedBasis._checked_size(max_len, "max_len")
    by_range, ends, count = {}, {}, 0  # paths by range, and by (range, source)
    for p in graph.paths_up_to(max_len):
        by_range.setdefault(p.range, []).append(p)
        ends.setdefault((p.range, p.source), []).append(p)
        count += not p.edges or len(graph.out_edges(graph.source(p.edges[-1]))) > 1
    terms = sum(len(g) ** 2 for g in ends.values())
    size = 14 * terms + 2 * sum(len(g) * sum(map(len, g)) for g in ends.values())
    if size > _MAX_H0_LINES:
        raise ValueError(f"max_len {max_len}: {terms} closed terms, {size} > {_MAX_H0_LINES} lines")
    closed = [(mu, nu) for group in by_range.values() for mu in group
              for nu in ends[mu.range, mu.source]]
    return {
        "closed_terms": closed,
        "projection_count": None if graph.has_loops() else count,
        "circle_flags": _no_exit_loops(graph),
    }


def _path_json(p: Path) -> dict:
    return {"source": p.source, "edges": list(p.edges), "range": p.range}


def h0_report_json(report: dict) -> dict:
    return {
        "closed_terms": [{"mu": _path_json(mu), "nu": _path_json(nu)}
                         for mu, nu in report["closed_terms"]],
        "projection_count": report["projection_count"],
        "circle_flags": [{"loop": _path_json(p)} for p in report["circle_flags"]],
    }
