"""Shared corpus generators and independent brute-force oracles.

Everything here is deliberately naive: answers are recomputed straight
from definitions (textbook BFS, exhaustive subset or permutation
enumeration), so the package never certifies itself in the tests that
matter.  Three exceptions drive package code a different way:
``reverse_sweep_survivors`` runs the kernel in the other sweep order,
``reference_elimination`` runs the kernels' sweep as a plain cursor scan
with one full matching per live candidate, and ``reference_certificate``
and ``least_survivor_certificate`` build certificates by plain survivor
scans.  ``reference_parser`` is the argparse command line that
``ekdom.cli`` parsed with before its table-driven parser, and
``reference_verify`` the certificate checker as a plain row scan over
textbook BFS distances.  ``reference_bfs_row``, ``reference_solve_order``
and ``reference_bfs_spanning_tree`` are the three breadth-first searches
the package ran before ``graph.bfs`` replaced them, kept to pin that
search's distances, connectivity, components, solve order and spanning
trees to theirs.  ``source_side_match`` is the textbook
source-side augmenting-path search, which pins the assignments that
``transform_assignment`` and the certificate rows record.
The graph and movement utilities that only the tests use (edge deletion,
k-neighbourhoods, the movement predicate, the diameter rule, the
Hamiltonian bound and the classical k = 1 tree trimming) live here too,
not in the package.
"""
from __future__ import annotations

import argparse
import heapq
import random
import re
import sys
from array import array
from collections import deque
from itertools import combinations, permutations, product
from typing import Iterator

from ekdom._kernel import pack_masks, run_elimination
from ekdom.certificate import CertificateViolation, _structure_fault
from ekdom.cli import EXIT_PARSE
from ekdom.closed_forms import cycle_number
from ekdom.configs import enumerate_dominating_configs, transform_assignment
from ekdom.domination import ball_masks
from ekdom.graph import (UNREACHABLE, Graph, all_pairs_distances, delete_vertices,
                         diameter, is_connected, is_tree)
from ekdom.solver import DEFAULT_BUDGET, BudgetExceededError, EternalCertificate

DEFAULT_SEED = 20240811


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labeled tree by decoding a random Pruefer sequence."""
    if n == 1:
        return Graph.build(1, [])
    if n == 2:
        return Graph.build(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_pruefer(n, seq)


def tree_from_pruefer(n: int, seq: list[int]) -> Graph:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.build(n, edges)


def random_connected_graph(n: int, extra: float, rng: random.Random) -> Graph:
    """Random tree plus each chord independently with probability extra."""
    tree = random_tree(n, rng)
    edges = set(tree.edges())
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return Graph.build(n, sorted(edges))


def random_graph(n: int, extra: float, rng: random.Random, connected: bool) -> Graph:
    """A random connected graph, or the disjoint union of two of them."""
    if connected or n < 2:
        return random_connected_graph(n, extra, rng)
    split = rng.randint(1, n - 1)
    left = random_connected_graph(split, extra, rng)
    right = random_connected_graph(n - split, extra, rng)
    edges = list(left.edges()) + [(u + split, v + split) for u, v in right.edges()]
    return Graph.build(n, edges)


# -- small graph and movement utilities the package itself does not need -----

def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    edges = [e for e in g.edges() if e != (min(u, v), max(u, v))]
    return Graph.build(g.n, edges, g.labels)


def neighborhood_k(dist, x: int, k: int, closed: bool = True) -> frozenset[int]:
    """Vertices within distance k of x (closed) or at distance exactly k (open)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    row = dist[x]
    if closed:
        return frozenset(v for v, d in enumerate(row) if d <= k)
    return frozenset(v for v, d in enumerate(row) if d == k)


def transforms(dist, src, dst, k: int) -> bool:
    """True iff every guard of src can reach its own target in dst."""
    return transform_assignment(dist, src, dst, k) is not None


def source_side_match(reach, src, dst) -> list[int] | None:
    """Augmenting-path matching; returns dst-position -> src-position or None.

    ``reach[u][t]`` is true when a guard on u walks to t in one step.  Each
    guard p of src in turn starts a depth-first search for an augmenting
    path, trying dst positions in ascending order, as the textbook
    recursion does; the path is kept on an explicit stack, so the number
    of guards is not bounded by the interpreter's recursion limit.
    """
    q = len(src)
    owner = [-1] * q  # owner[c] = src position matched to dst position c
    for p in range(q):
        seen = bytearray(q)
        path = []  # (guard, position) steps of the path so far
        row = reach[src[p]]
        c = 0
        while True:
            c = seen.find(0, c)
            while c >= 0 and not row[dst[c]]:
                c = seen.find(0, c + 1)
            if c >= 0:
                seen[c] = 1
                path.append((p, c))
                if owner[c] < 0:
                    for p, c in path:
                        owner[c] = p
                    break
                p = owner[c]
                row = reach[src[p]]
                c = 0
            elif path:  # no free position from p: back up to the step before
                p, c = path.pop()
                row = reach[src[p]]
                c += 1
            else:
                return None
    return owner


def hamiltonian_upper_bound(n: int, k: int) -> int:
    """Upper bound for any Hamiltonian graph on n vertices.

    Guards patrol a Hamilton cycle, so the cycle value bounds the graph.
    Hamiltonicity is the caller's assertion; it is not checked here.
    """
    return cycle_number(n, k)


def diameter_rule(g: Graph, k: int) -> int | None:
    """1 when one guard reaches everything (diameter <= k), else None."""
    if not is_connected(g):
        raise ValueError("diameter rule needs a connected graph")
    return 1 if diameter(all_pairs_distances(g)) <= k else None


# -- oracles ------------------------------------------------------------------

def oracle_distances(g: Graph) -> list[list[int]]:
    """Textbook BFS from scratch, independent of ekdom.graph."""
    out = []
    for src in range(g.n):
        dist = [None] * g.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append(dist)
    return out


def reference_bfs_row(g: Graph, src: int) -> tuple[int, ...]:
    """Hop distances from src, UNREACHABLE outside its component."""
    row = [UNREACHABLE] * g.n
    row[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = row[u]
        for v in g.adj[u]:
            if row[v] == UNREACHABLE:
                row[v] = du + 1
                queue.append(v)
    return tuple(row)


def reference_solve_order(g: Graph) -> list[int]:
    """Breadth-first visiting order from vertex 0, neighbours in id order;
    ValueError when it misses a vertex."""
    order = [0] if g.n else []
    seen = set(order)
    for u in order:  # grows while it is read: the search's queue
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    if len(order) != g.n:
        raise ValueError("the solve order covers connected graphs only")
    return order


def reference_bfs_spanning_tree(g: Graph, root: int) -> Graph:
    """Deterministic BFS tree (neighbors visited in ascending order)."""
    parent = {root: root}
    order = deque([root])
    edges = []
    while order:
        u = order.popleft()
        for w in g.adj[u]:
            if w not in parent:
                parent[w] = u
                edges.append((u, w))
                order.append(w)
    if len(parent) != g.n:
        raise ValueError("graph is disconnected")
    return Graph.build(g.n, edges, g.labels)


def oracle_is_dominating(g: Graph, guards, k: int, dist=None) -> bool:
    """Every vertex within k of a guard; ``dist`` defaults to oracle_distances(g)."""
    if dist is None:
        dist = oracle_distances(g)
    return all(any(dist[u][v] is not None and dist[u][v] <= k for u in set(guards))
               for v in range(g.n))


def oracle_gamma(g: Graph, k: int) -> int:
    """Smallest dominating set size by exhaustive subset enumeration."""
    dist = oracle_distances(g)
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            if oracle_is_dominating(g, subset, k, dist):
                return size
    raise AssertionError("even the full vertex set failed to dominate")


def oracle_reaches_within(g: Graph, root: int, members, k: int) -> bool:
    """Textbook BFS from root through members only reaches them all within k."""
    allowed = set(members)
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w in allowed and w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    return root in allowed and len(depth) == len(allowed) and max(depth.values()) <= k


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first]] + partition
        for i, part in enumerate(partition):
            yield partition[:i] + [[first] + part] + partition[i + 1:]


def oracle_partition_number(g: Graph, k: int) -> int:
    """Fewest parts in a partition of the vertices where each part holds a
    root whose BFS inside the part reaches every member within k, by
    enumerating every set partition (Bell(8) = 4,140 at 8 vertices)."""
    feasible: dict[frozenset, bool] = {}

    def ok(part: list) -> bool:
        key = frozenset(part)
        if key not in feasible:
            feasible[key] = any(oracle_reaches_within(g, r, key, k) for r in key)
        return feasible[key]

    return min(len(p) for p in _set_partitions(list(range(g.n)))
               if all(ok(part) for part in p))


def oracle_transforms(g: Graph, src, dst, k: int) -> bool:
    """Movement feasibility by trying every guard-to-target permutation."""
    dist = oracle_distances(g)
    return any(all(dist[a][b] is not None and dist[a][b] <= k
                   for a, b in zip(src, perm))
               for perm in permutations(dst))


def oracle_dominating_multisets(g: Graph, k: int, q: int) -> list[tuple]:
    from itertools import combinations_with_replacement
    dist = oracle_distances(g)
    return [cfg for cfg in combinations_with_replacement(range(g.n), q)
            if oracle_is_dominating(g, cfg, k, dist)]


# -- canonical forms, for exhaustive small-tree corpora -----------------------

def _ahu(g: Graph, root: int) -> str:
    def encode(u: int, parent: int) -> str:
        inner = sorted(encode(w, u) for w in g.adj[u] if w != parent)
        return "(" + "".join(inner) + ")"
    return encode(root, -1)


def _centers(g: Graph) -> list[int]:
    if g.n == 1:
        return [0]
    degree = [g.degree(v) for v in range(g.n)]
    layer = [v for v in range(g.n) if degree[v] == 1]
    remaining = g.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in g.adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
            degree[v] = 0
        layer = nxt
    return sorted(layer)


def canonical_tree(g: Graph) -> tuple:
    return tuple(sorted(_ahu(g, c) for c in _centers(g)))


_TREE_CACHE: dict[int, list[Graph]] = {}

# Non-isomorphic trees on n vertices (OEIS A000055), n = 0..10.
TREE_COUNTS = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


def all_trees_exactly(n: int) -> list[Graph]:
    """Every non-isomorphic tree on n vertices (Pruefer sweep).

    The sweep stops once it holds all ``TREE_COUNTS[n]`` classes, keeping
    the first tree seen in each: n = 8 decodes 5,350 of 8^6 sequences and
    n = 9 decodes 74,734 of 9^7 (a few seconds); n = 10 takes about a
    minute.  Cached per process: several test modules walk the same corpus.
    """
    if n in _TREE_CACHE:
        return _TREE_CACHE[n]
    if n == 1:
        trees = [Graph.build(1, [])]
    elif n == 2:
        trees = [Graph.build(2, [(0, 1)])]
    else:
        seen = {}
        for seq in product(range(n), repeat=n - 2):
            t = tree_from_pruefer(n, list(seq))
            seen.setdefault(canonical_tree(t), t)
            if len(seen) == TREE_COUNTS[n]:
                break
        trees = list(seen.values())
    _TREE_CACHE[n] = trees
    return trees


def reverse_sweep_survivors(g: Graph, k: int, q: int) -> frozenset:
    """Survivors of the elimination kernel run on the size-q dominating
    configurations in reverse order, the schedule ``eternal_survivors``
    does not use; raises BudgetExceededError when the kernel's budget trips.
    """
    dist = all_pairs_distances(g)
    states = enumerate_dominating_configs(dist, k, q)[::-1]
    alive, _, checks, exceeded = run_elimination(
        g.n, pack_masks(ball_masks(dist, k), g.n), states,
        array("i", [0]) * (len(states) * g.n), DEFAULT_BUDGET)
    if exceeded:
        raise BudgetExceededError(f"q={q}: {checks} checks exceeded the budget")
    return frozenset(st for st, live in zip(states, alive) if live)


def reference_elimination(dist, k: int, states: list[tuple], wit: array, budget: int):
    """The kernels' Gauss-Seidel sweep as a plain cursor scan.

    Same contract and results as ``_kernel.run_elimination``, but every
    live candidate the cursor meets gets one full ``transforms`` test of
    the two states: no run skip, no prefix reuse and no memo.  Moves are
    read off the distance matrix ``dist``, not off the kernels' ball masks.
    """
    n, S = len(dist), len(states)
    cand = [[i for i, st in enumerate(states) if v in st] for v in range(n)]
    alive = bytearray([1]) * S
    pos = [[0] * n for _ in range(S)]
    wit[:] = array("i", [-1]) * (S * n)
    checks = rounds = 0
    changed, exceeded = S > 0, False
    while changed and not exceeded:
        changed = False
        rounds += 1
        for i in range(S):
            if not alive[i]:
                continue
            for v in range(n):
                if v in states[i]:
                    continue
                checks += 1
                if checks > budget:
                    exceeded = True
                    break
                if wit[i * n + v] >= 0 and alive[wit[i * n + v]]:
                    continue
                cv = cand[v]
                p = pos[i][v]
                while p < len(cv) and not (
                        alive[cv[p]] and transforms(dist, states[i], states[cv[p]], k)):
                    p += 1
                pos[i][v] = p
                if p < len(cv):
                    wit[i * n + v] = cv[p]
                else:
                    alive[i] = 0
                    changed = True
                    break
            if exceeded:
                break
    return alive, rounds, checks, exceeded


def _certificate(g: Graph, k: int, q: int, responses: dict) -> EternalCertificate:
    """Rows of a closure's ``(member, attack) -> (next, moves)`` map; guard
    p's target is named by the successor's first post on that vertex."""
    members = sorted({cur for cur, _ in responses})
    index = {cfg: i for i, cfg in enumerate(members)}
    rows = []
    for cur in members:
        for v in range(g.n):
            nxt, moves = responses[(cur, v)]
            rows.append([index[nxt], *(nxt.index(b) for _, b in moves)])
    return EternalCertificate(k, q, tuple(members), rows)


def _first_reachable(dist, cur, candidates, k):
    """The first candidate cur moves to in one step, with the moves."""
    for nxt in candidates:
        moves = transform_assignment(dist, cur, nxt, k)
        if moves is not None:
            return nxt, moves
    return None


def reference_certificate(g: Graph, k: int, q: int,
                          survivors: frozenset) -> EternalCertificate:
    """The certificate closure without the kernels or their witness table.

    Breadth-first from the lexicographically least survivor, the response
    to (member, attack v) is the least configuration already found that
    holds v and that the member reaches in one step; when there is none,
    it is the least such survivor, found by trying every survivor that
    holds v in lexicographic order, and that survivor joins the family.
    This is the closure both kernels' ``certificate_rows`` must reproduce
    from the table.
    """
    dist = all_pairs_distances(g)
    ordered = sorted(survivors)
    found = [ordered[0]]  # in order of discovery
    responses = {}
    for cur in found:
        for v in range(g.n):
            hit = _first_reachable(dist, cur, sorted(f for f in found if v in f), k)
            if hit is None:
                hit = _first_reachable(dist, cur, [s for s in ordered if v in s], k)
                if hit is None:
                    raise AssertionError("survivor cannot answer an attack")
                found.append(hit[0])
            responses[(cur, v)] = hit
    return _certificate(g, k, q, responses)


def least_survivor_certificate(g: Graph, k: int, q: int,
                               survivors: frozenset) -> EternalCertificate:
    """The closure that answers every (member, attack v) with the least
    survivor holding v that the member reaches in one step, breadth-first
    from the least survivor.  Each member of ``reference_certificate``'s
    family joins as such a response to a member found before it, so that
    family is a subset of this one."""
    dist = all_pairs_distances(g)
    ordered = sorted(survivors)
    found = [ordered[0]]  # in order of discovery
    responses = {}
    for cur in found:
        for v in range(g.n):
            hit = _first_reachable(dist, cur, [s for s in ordered if v in s], k)
            if hit is None:
                raise AssertionError("survivor cannot answer an attack")
            responses[(cur, v)] = hit
            if hit[0] not in found:
                found.append(hit[0])
    return _certificate(g, k, q, responses)


def reference_verify(g: Graph, cert: EternalCertificate
                     ) -> tuple[bool, CertificateViolation | None]:
    """``verify_certificate``'s verdict, one member and one row at a time.

    The same stages and scan order (the shared structural rules, then q,
    k and every member, then every row: its moves, its successor multiset,
    its attack), with moves and domination read off ``oracle_distances``
    instead of radius-k balls and no column-wise shortcut.
    """
    dist = oracle_distances(g)
    n, q, k, family, rows = g.n, cert.q, cert.k, cert.family, cert.rows

    def bad(state, attack_id, reason):
        attack = g.labels[attack_id] if attack_id is not None else None
        return False, CertificateViolation(state, attack, reason)

    def near(u, v):
        return dist[u][v] is not None and dist[u][v] <= k

    fault = _structure_fault(family, rows, q, n)
    if fault is not None:
        return bad(*fault)
    if q < 1 or k < 1:
        return bad(None, None, "q and k must be positive")
    if not family:
        return bad(None, None, "empty family")
    for i, member in enumerate(family):
        if any(not (0 <= u < n) for u in member):
            return bad(i, None, f"member {i} names a vertex out of range")
        if tuple(sorted(member)) != tuple(member):
            return bad(i, None, f"member {i} is not in canonical sorted form")
        if not all(any(near(u, v) for u in member) for v in range(n)):
            return bad(i, None, f"member {i} is not distance-{k} dominating")
    for i, member in enumerate(family):
        for v in range(n):
            row = rows[i * n + v]
            succ = family[row[0]]
            targets = [succ[t] for t in row[1:]]
            for a, b in zip(member, targets):
                if not near(a, b):
                    return bad(i, v, f"move {a}->{b} longer than k={k}")
            if tuple(sorted(targets)) != succ:
                return bad(i, v, "move targets do not match the successor")
            if v not in succ:
                return bad(i, v, "successor does not occupy the attacked vertex")
    return True, None


# -- ordinary (k = 1) eternal domination on trees -----------------------------

def apply_leaf_cluster_trim(t: Graph) -> Graph | None:
    """k = 1: shear every leaf off a vertex that has at least two of them
    and exactly one non-leaf neighbor.  Eternal number drops by one."""
    for x in range(t.n):
        leaves = [w for w in t.adj[x] if t.degree(w) == 1]
        others = [w for w in t.adj[x] if t.degree(w) >= 2]
        if len(leaves) >= 2 and len(others) == 1:
            return delete_vertices(t, leaves)[0]
    return None


def apply_pendant_pair_trim(t: Graph) -> Graph | None:
    """k = 1: remove a degree-two vertex together with its single leaf.
    Eternal number drops by one."""
    for x in range(t.n):
        if t.degree(x) != 2:
            continue
        leaves = [w for w in t.adj[x] if t.degree(w) == 1]
        if len(leaves) == 1:
            return delete_vertices(t, [x, leaves[0]])[0]
    return None


def eternal_one_tree(t: Graph) -> int:
    """Ordinary (k = 1) eternal domination number of a tree, by trimming.

    The classical linear-time computation, an oracle for the engine at
    k = 1: reduces with the two trims until a star or a one- or
    two-vertex tree remains; every trim costs exactly one guard, stars
    cost two, trivial trees one.
    """
    if not is_tree(t):
        raise ValueError("trimming is defined on trees")
    trims = 0
    cur = t
    while True:
        if cur.n <= 2:
            return trims + 1
        if max(cur.degree(v) for v in range(cur.n)) == cur.n - 1:
            return trims + 2  # star
        cur = apply_leaf_cluster_trim(cur) or apply_pendant_pair_trim(cur)
        if cur is None:
            raise AssertionError("irreducible non-star tree; trimming rules are incomplete")
        trims += 1


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with EXIT_PARSE instead of argparse's 2 (EXIT_BUDGET).

    Reads negative numbers by the rule of argparse in CPython 3.10-3.13.0,
    which ``ekdom.cli._negative`` keeps, whatever a later release reads.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, budget: bool = True) -> None:
    p.add_argument("-k", type=int, required=True, help="guard movement radius")
    p.add_argument("file", help="edge-list or DOT-subset file ('-' for stdin)")
    if budget:
        p.add_argument("--max-states", type=_non_negative_int, default=DEFAULT_BUDGET,
                       help="(configuration, attack) check budget per guard count")


def reference_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="ekdom",
        description="Exact eternal distance-k domination: numbers, bounds, certificates.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="static distance-k domination number")
    _add_common(p, budget=False)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eternal", help="eternal distance-k domination number")
    _add_common(p)
    p.add_argument("--qmax", type=_positive_int, default=None,
                   help="stop after this guard count")
    p.add_argument("--certificate", metavar="OUT.json", default=None,
                   help="write the defense certificate here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("file", help="graph file")

    p = sub.add_parser("reduce", help="tree reduction trace as JSON")
    _add_common(p, budget=False)

    p = sub.add_parser("closed-form", help="formula values for named families")
    p.add_argument("family", choices=["path", "cycle", "mary"])
    p.add_argument("args", type=int, nargs="+",
                   help="path/cycle: N K; mary: M D K")

    p = sub.add_parser("power-check", help="compare (G, k) against (G^k, 1)")
    _add_common(p)

    p = sub.add_parser("bounds", help="sandwich, spanning-tree and decomposition bounds")
    _add_common(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="emit a named family as an edge list")
    p.add_argument("family", choices=["path", "cycle", "mary", "spider", "pnl", "substar"])
    p.add_argument("args", type=int, nargs="+",
                   help="path/cycle: N; mary: M D; spider: LEG...; pnl: N K Z; substar: N K")
    p.add_argument("--dot", action="store_true", help="emit DOT instead")

    return top
