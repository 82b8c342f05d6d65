"""Structural bounds and the graph-power equivalence check.

A guard that may step distance k in G is exactly a guard that may step
one edge in the k-th power of G, so the eternal numbers of (G, k) and
(G^k, 1) agree, configuration for configuration.  ``power_equivalence_check``
verifies both the numbers and the survivor sets.

Upper bounds come from two directions: any spanning tree of G only
restricts guard movement, so its eternal number bounds the graph's; and a
partition of G into parts that each carry a spanning tree of root
eccentricity at most k can be defended with two guards per part (one on
the root, one rotating), or one guard per part when the radius is only
floor(k/2).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .graph import DisconnectedGraphError, Graph, graph_power, is_connected, is_tree
from .reductions import reduce_tree
from .solver import (DEFAULT_BUDGET, BudgetExceededError, eternal_number,
                     eternal_survivors)


@dataclass(frozen=True)
class DecompositionPart:
    root: int
    vertices: tuple[int, ...]  # all within k of root inside the part


@dataclass(frozen=True)
class Decomposition:
    k: int
    parts: tuple[DecompositionPart, ...]

    def to_json(self, g: Graph) -> list[dict]:
        return [{"root": g.labels[p.root],
                 "vertices": [g.labels[v] for v in p.vertices]}
                for p in self.parts]


@dataclass(frozen=True)
class PowerEquivalenceReport:
    k: int
    gamma_direct: int
    gamma_power: int
    numbers_equal: bool
    survivors_equal: bool
    first_mismatch: tuple | None


def power_equivalence_check(g: Graph, k: int,
                            budget: int = DEFAULT_BUDGET) -> PowerEquivalenceReport:
    """Solve (G, k) and (G^k, 1) and compare numbers and survivor sets."""
    if not is_connected(g):
        raise DisconnectedGraphError("survivor sets are defined per connected graph")
    direct = eternal_number(g, k, budget=budget, want_certificate=False)
    power = eternal_number(graph_power(g, k), 1, budget=budget,
                           want_certificate=False)
    if not (direct.resolved and power.resolved):
        raise BudgetExceededError("one side of the power check ran out of budget")
    numbers_equal = direct.gamma_eternal == power.gamma_eternal
    survivors_equal = False
    mismatch = None
    if numbers_equal:
        q = direct.gamma_eternal
        s_direct = eternal_survivors(g, k, q, budget=budget)
        s_power = eternal_survivors(graph_power(g, k), 1, q, budget=budget)
        survivors_equal = s_direct == s_power
        if not survivors_equal:
            mismatch = min(s_direct.symmetric_difference(s_power))
    return PowerEquivalenceReport(k, direct.gamma_eternal, power.gamma_eternal,
                                  numbers_equal, survivors_equal, mismatch)


# -- spanning trees ----------------------------------------------------------

def bfs_spanning_tree(g: Graph, root: int) -> Graph:
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


def _tree_upper(t: Graph, k: int, budget: int) -> int:
    report = eternal_number(t, k, budget=budget, want_certificate=False)
    if report.resolved:
        return report.gamma_eternal
    return reduce_tree(t, k).upper_bound


def spanning_tree_upper_bound(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Least eternal number over the BFS spanning trees of G, one per root.

    Trees outside the solver budget are bounded through their reduction
    trace, so the result is always a valid upper bound for the graph
    itself.
    """
    if not is_connected(g):
        raise ValueError("spanning trees need a connected graph")
    if is_tree(g):
        return _tree_upper(g, k, budget)
    return min(_tree_upper(bfs_spanning_tree(g, r), k, budget) for r in range(g.n))


# -- rooted-tree decompositions ----------------------------------------------

def _limited_bfs(g: Graph, root: int, allowed: int, k: int) -> dict[int, int]:
    """Depths of vertices within k of root inside the allowed vertex mask."""
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        if depth[u] == k:
            continue
        for w in g.adj[u]:
            if allowed >> w & 1 and w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    return depth


def _part_witness(g: Graph, mask: int, k: int) -> DecompositionPart | None:
    """A root whose BFS tree spans G[mask] with depth <= k, if any."""
    members = [v for v in range(g.n) if mask >> v & 1]
    for root in members:
        if len(_limited_bfs(g, root, mask, k)) == len(members):
            return DecompositionPart(root, tuple(members))
    return None


def depth_rooted_decomposition_number(g: Graph, k: int, mode: str = "exact"
                                      ) -> tuple[int, Decomposition]:
    """Minimum parts in a partition where each part carries a spanning
    tree of root eccentricity at most k.

    Exact mode searches partitions with feasibility memoised per vertex
    mask and is restricted to n <= 12; greedy mode repeatedly carves the
    largest depth-k BFS ball out of the uncovered region and yields a
    valid (upper-bounding) decomposition for any size.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if g.n == 0:
        return 0, Decomposition(k, ())
    if mode == "greedy":
        return _greedy_decomposition(g, k)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if g.n > 12:
        raise BudgetExceededError("exact decomposition is restricted to n <= 12")
    return _exact_decomposition(g, k)


def _greedy_decomposition(g: Graph, k: int) -> tuple[int, Decomposition]:
    uncovered = (1 << g.n) - 1
    parts = []
    while uncovered:
        best_root, best_depth = -1, {}
        for r in range(g.n):
            if not uncovered >> r & 1:
                continue
            depth = _limited_bfs(g, r, uncovered, k)
            if len(depth) > len(best_depth):
                best_root, best_depth = r, depth
        mask = 0
        for v in best_depth:
            mask |= 1 << v
        part = _part_witness(g, mask, k)
        assert part is not None  # the BFS ball is its own witness
        parts.append(part)
        uncovered &= ~mask
    return len(parts), Decomposition(k, tuple(parts))


def _exact_decomposition(g: Graph, k: int) -> tuple[int, Decomposition]:
    feasible_cache: dict[int, bool] = {}

    def feasible(mask: int) -> bool:
        hit = feasible_cache.get(mask)
        if hit is None:
            hit = _part_witness(g, mask, k) is not None
            feasible_cache[mask] = hit
        return hit

    @lru_cache(maxsize=None)
    def best(mask: int) -> tuple[int, tuple[int, ...]]:
        if mask == 0:
            return 0, ()
        low = mask & -mask  # the lowest uncovered vertex anchors the next part
        rest = mask ^ low
        best_count, best_parts = g.n + 1, ()
        sub = rest
        while True:
            part = sub | low
            if feasible(part):
                count, parts = best(mask ^ part)
                if count + 1 < best_count:
                    best_count, best_parts = count + 1, parts + (part,)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return best_count, best_parts

    count, masks = best((1 << g.n) - 1)
    parts = tuple(_part_witness(g, m, k) for m in masks)
    best.cache_clear()
    return count, Decomposition(k, parts)


def decomposition_bound(g: Graph, k: int) -> tuple[int, Decomposition]:
    """min(2 * parts-at-radius-k, parts-at-radius-floor(k/2)), with the
    radius-k decomposition that witnesses the first term.

    Two guards defend any radius-k rooted tree (attacked vertex gets the
    root guard, the other guard refills the root); one guard suffices at
    radius floor(k/2).  Partitions are searched exactly up to 12 vertices
    and carved greedily beyond.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    mode = "exact" if g.n <= 12 else "greedy"
    full, witness = depth_rooted_decomposition_number(g, k, mode)
    half, _ = depth_rooted_decomposition_number(g, k // 2, mode)
    return min(2 * full, half), witness


def decomposition_upper_bound(g: Graph, k: int) -> int:
    """``decomposition_bound`` without its witness."""
    return decomposition_bound(g, k)[0]
