"""Immutable undirected graphs with precomputed shortest-path distances.

Vertices are dense integers ``0..n-1``.  Every vertex carries a text label
so graphs read from files round-trip their original names.  ``bfs`` is
the package's one traversal, a breadth-first search that visits each
vertex's neighbours in id order: distances, connectivity and components
here, and the solver's vertex order and the bounds' spanning trees, are
all read off it.  Distances are hop counts; vertices in different
components sit at the :data:`UNREACHABLE` sentinel, chosen large enough
that any ``<= k`` radius test against it fails.

A graph is a ``typing.NamedTuple`` of its vertex count, adjacency and
labels, so graphs and distance matrices are plain immutable values
(tuples all the way down), hashable with value equality, and safe to
share between threads.  Everything in this module is a pure function of
its inputs.  ``memo`` keeps what the package derives from a graph in one
dict per graph, so a graph's distances, balls and solves stay or go together.

The package-wide constants and errors live here too, so the command line
reads the budget default and catches ``BudgetExceededError`` without
loading the solver.
"""
import warnings
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

#: Distance reported between vertices in different components.
UNREACHABLE = 1 << 30

#: Graphs ``memo`` keeps, and results it keeps per graph (least recently
#: used go first), so a long-lived caller holds a bounded amount.
CACHE_SIZE = 64

#: (configuration, attack) checks each guard count may spend unless the
#: caller sets a budget; the solver's and the command line's default.
DEFAULT_BUDGET = 5_000_000

DistMatrix = tuple  # tuple[tuple[int, ...], ...], symmetric, zero diagonal


class ParseError(ValueError):
    """Malformed graph document; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceededError(RuntimeError):
    """The configured (configuration, attack) check budget ran out."""


class DisconnectedGraphError(ValueError):
    """Raised by operations that are only defined on connected graphs."""


class Graph(NamedTuple):
    """Simple undirected graph: no loops, no multi-edges, symmetric adjacency,
    distinct labels."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    @staticmethod
    def build(n: int, edges: Iterable[tuple[int, int]],
              labels: Sequence[str] | None = None) -> "Graph":
        """Construct from an edge list, validating simplicity and ranges."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count does not match vertex count")
            if len(set(labels)) != n:
                dup = next(x for i, x in enumerate(labels) if x in labels[:i])
                raise ValueError(f"vertex label {dup!r} is repeated")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in nbrs), labels)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def id_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown vertex label {label!r}") from None


def bfs(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first search from root, each vertex's neighbours visited in
    id order: the vertices of root's component in visiting order, and
    every vertex's depth (UNREACHABLE outside that component)."""
    depth = [UNREACHABLE] * g.n
    depth[root] = 0
    order = [root]
    for u in order:  # grows while it is read: the search's queue
        d = depth[u] + 1
        for v in g.adj[u]:
            if depth[v] == UNREACHABLE:
                depth[v] = d
                order.append(v)
    return order, depth


@lru_cache(maxsize=CACHE_SIZE)
def _derived(g: Graph) -> dict:
    return {}


def memo(g: Graph, key, make):
    """g's result under key, stored from ``make()`` on a miss.  ``make`` may
    store results of its own for g, so the per-graph bound is applied after it."""
    results = _derived(g)
    if key in results:
        results[key] = value = results.pop(key)  # now the most recently used
        return value
    value = results[key] = make()
    while len(results) > CACHE_SIZE:
        del results[next(iter(results))]
    return value


def all_pairs_distances(g: Graph) -> DistMatrix:
    """Exact hop distances from every vertex, UNREACHABLE across components:
    row s is the depths of ``bfs(g, s)``."""
    return memo(g, "distances", lambda: tuple(tuple(bfs(g, s)[1]) for s in range(g.n)))


def is_connected(g: Graph) -> bool:
    """Whether one search from vertex 0 reaches every vertex."""
    return g.n <= 1 or len(bfs(g, 0)[0]) == g.n


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex:
    one search from the least vertex of each."""
    seen: set[int] = set()
    out = []
    for s in range(g.n):
        if s not in seen:
            comp = tuple(sorted(bfs(g, s)[0]))
            seen.update(comp)
            out.append(comp)
    return out


def eccentricity(dist: DistMatrix, u: int) -> int:
    row = dist[u]
    if UNREACHABLE in row:
        raise DisconnectedGraphError("eccentricity is undefined on a disconnected graph")
    return max(row)


def diameter(dist: DistMatrix) -> int:
    return max(eccentricity(dist, u) for u in range(len(dist)))


def graph_power(g: Graph, k: int) -> Graph:
    """Same vertices; an edge wherever the original distance is in 1..k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    dist = all_pairs_distances(g)
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if 1 <= dist[u][v] <= k]
    return Graph.build(g.n, edges, g.labels)


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.num_edges == g.n - 1


def delete_vertices(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Remove a vertex set; survivors are relabelled densely.

    Returns the smaller graph plus the old-id -> new-id map.  Labels follow
    their vertices.
    """
    drop = set(vertices)
    if not all(0 <= v < g.n for v in drop):
        raise ValueError("vertex out of range")
    keep = [v for v in range(g.n) if v not in drop]
    idmap = {old: new for new, old in enumerate(keep)}
    edges = [(idmap[u], idmap[v]) for u, v in g.edges() if u in idmap and v in idmap]
    return Graph.build(len(keep), edges, tuple(g.labels[v] for v in keep)), idmap


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    keep = set(vertices)
    return delete_vertices(g, (v for v in range(g.n) if v not in keep))


# ---------------------------------------------------------------------------
# Parsing and formatting.
#
# Edge-list format: UTF-8 lines, "#" starts a comment, "A B" declares an
# undirected edge between labels A and B, "v A" declares an isolated vertex.
# DOT subset: "graph { a -- b; c; ... }" with optional graph name, chained
# "a -- b -- c" statements, no attributes.  Labels are whitespace-delimited
# tokens; ids are assigned in first-appearance order.
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse an edge-list document or the minimal DOT subset."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            first = line.split()[0]
            if first == "graph" or first.startswith("graph{"):
                return _parse_dot(text)
            break
    return _parse_edge_list(text)


class _GraphAccumulator:
    """Shared label interning and edge bookkeeping for both parsers."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.labels: list[str] = []
        self.edges: list[tuple[int, int]] = []
        self._seen: set[tuple[int, int]] = set()

    def vertex(self, label: str) -> int:
        if label not in self.ids:
            self.ids[label] = len(self.labels)
            self.labels.append(label)
        return self.ids[label]

    def edge(self, a: str, b: str, line: int) -> None:
        if a == b:
            raise ParseError(f"self-loop at '{a}'", line)
        u, v = self.vertex(a), self.vertex(b)
        key = (min(u, v), max(u, v))
        if key in self._seen:
            warnings.warn(f"line {line}: duplicate edge {a} {b} ignored", stacklevel=4)
            return
        self._seen.add(key)
        self.edges.append(key)

    def graph(self) -> Graph:
        return Graph.build(len(self.labels), self.edges, self.labels)


#: Characters of an offending line or token that a parse error quotes.
_QUOTE_CHARS = 40


def _quote(text: str) -> str:
    """``text`` as ``repr`` shows it, cut to its first ``_QUOTE_CHARS``
    characters and "..." when longer: a parse error stays one short line
    whatever the input (a certificate passed as the graph, say)."""
    return repr(text) if len(text) <= _QUOTE_CHARS else f"{text[:_QUOTE_CHARS]!r}..."


def _parse_edge_list(text: str) -> Graph:
    acc = _GraphAccumulator()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 2 and tokens[0] == "v":
            acc.vertex(tokens[1])
        elif len(tokens) == 2:
            acc.edge(tokens[0], tokens[1], lineno)
        else:
            raise ParseError(f"expected 'A B' or 'v A', got {_quote(raw.strip())}", lineno)
    return acc.graph()


def _dot_tokens(text: str) -> list[tuple[str, int]]:
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for ch in ("{", "}", ";"):
            line = line.replace(ch, f" {ch} ")
        line = line.replace("--", " -- ")
        tokens.extend((tok, lineno) for tok in line.split())
    return tokens


def _parse_dot(text: str) -> Graph:
    tokens = _dot_tokens(text)
    acc = _GraphAccumulator()
    i = 0

    def expect(want: str) -> None:
        nonlocal i
        if i >= len(tokens) or tokens[i][0] != want:
            got, line = tokens[i] if i < len(tokens) else ("end of input", tokens[-1][1])
            raise ParseError(f"expected {want!r}, got {_quote(got)}", line)
        i += 1

    expect("graph")
    if i < len(tokens) and tokens[i][0] not in ("{",):
        i += 1  # optional graph name
    expect("{")
    while i < len(tokens) and tokens[i][0] != "}":
        tok, line = tokens[i]
        if tok in ("--", ";"):
            raise ParseError(f"unexpected {_quote(tok)}", line)
        prev = tok
        acc.vertex(prev)
        i += 1
        while i < len(tokens) and tokens[i][0] == "--":
            i += 1
            if i >= len(tokens) or tokens[i][0] in ("--", ";", "{", "}"):
                raise ParseError("dangling '--'", line)
            cur, line = tokens[i]
            acc.edge(prev, cur, line)
            prev = cur
            i += 1
        if i < len(tokens) and tokens[i][0] == ";":
            i += 1
    expect("}")
    if i != len(tokens):
        raise ParseError(f"trailing input {_quote(tokens[i][0])}", tokens[i][1])
    return acc.graph()


def format_edge_list(g: Graph) -> str:
    lines = [f"# {g.n} vertices, {g.num_edges} edges"]
    isolated = [u for u in range(g.n) if g.degree(u) == 0]
    lines.extend(f"v {g.labels[u]}" for u in isolated)
    lines.extend(f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def format_dot(g: Graph) -> str:
    body = [f"  {g.labels[u]} -- {g.labels[v]};" for u, v in g.edges()]
    body.extend(f"  {g.labels[u]};" for u in range(g.n) if g.degree(u) == 0)
    return "graph {\n" + "\n".join(body) + "\n}\n"
