"""Structural bounds and the graph-power equivalence check.

A guard that may step distance k in G is exactly a guard that may step
one edge in the k-th power of G, so the eternal numbers of (G, k) and
(G^k, 1) agree, configuration for configuration.  ``power_equivalence_check``
verifies both the numbers and the survivor sets and reports them in a
``PowerEquivalenceReport``, an immutable ``NamedTuple``.

Upper bounds come from two directions: any spanning tree of G only
restricts guard movement, so its eternal number bounds the graph's; and a
partition of G into parts that each carry a BFS tree of depth at most k
from a root can be defended with two guards per part (one on the root,
one rotating), or one guard per part when the depth is only floor(k/2).

The fewest parts such a partition needs is exactly gamma_k.  The roots of
any such partition distance-k dominate G, so it has at least gamma_k
parts.  Conversely, give every vertex to its nearest vertex of a minimum
dominating set, ties going to the smaller id: if v goes to r, every
vertex on a shortest v-r path goes to r too (a closer or equally close
smaller root would have claimed v), so each cell holds a BFS tree of
depth at most k from its root.  The decomposition bound is therefore
min(2 gamma_k, gamma_floor(k/2)).
"""
from typing import NamedTuple

from .domination import gamma_k
from .graph import (DisconnectedGraphError, Graph, all_pairs_distances, bfs,
                    graph_power, is_connected, is_tree)
from .reductions import reduce_tree
from .solver import (DEFAULT_BUDGET, BudgetExceededError, eternal_number,
                     eternal_survivors)


class PowerEquivalenceReport(NamedTuple):
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
    g_power = graph_power(g, k)
    direct = eternal_number(g, k, budget=budget)
    power = eternal_number(g_power, 1, budget=budget)
    if not (direct.resolved and power.resolved):
        raise BudgetExceededError("one side of the power check ran out of budget")
    numbers_equal = direct.gamma_eternal == power.gamma_eternal
    survivors_equal = False
    mismatch = None
    if numbers_equal:
        q = direct.gamma_eternal
        s_direct = eternal_survivors(g, k, q, budget=budget)
        s_power = eternal_survivors(g_power, 1, q, budget=budget)
        survivors_equal = s_direct == s_power
        if not survivors_equal:
            mismatch = min(s_direct.symmetric_difference(s_power))
    return PowerEquivalenceReport(k, direct.gamma_eternal, power.gamma_eternal,
                                  numbers_equal, survivors_equal, mismatch)


# -- spanning trees ----------------------------------------------------------

def bfs_spanning_tree(g: Graph, root: int) -> Graph:
    """The tree of ``graph.bfs`` from root: each other vertex hangs from its
    first neighbour in visiting order, which lies one level up."""
    order = bfs(g, root)[0]
    if len(order) != g.n:
        raise DisconnectedGraphError("graph is disconnected")
    rank = {u: i for i, u in enumerate(order)}
    return Graph.build(g.n, [(min(g.adj[w], key=rank.__getitem__), w) for w in order[1:]],
                       g.labels)


def _tree_upper(t: Graph, k: int, budget: int) -> int:
    report = eternal_number(t, k, budget=budget)
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
        raise DisconnectedGraphError("spanning trees need a connected graph")
    if is_tree(g):
        return _tree_upper(g, k, budget)
    return min(_tree_upper(bfs_spanning_tree(g, r), k, budget) for r in range(g.n))


# -- rooted-tree decompositions ----------------------------------------------

def decomposition_bound(g: Graph, k: int) -> tuple[int, list[tuple[int, list[int]]]]:
    """min(2 * gamma_k, gamma_floor(k/2)), with the radius-k decomposition
    that witnesses the first term.

    Two guards defend any radius-k rooted tree (attacked vertex gets the
    root guard, the other guard refills the root); one guard suffices at
    radius floor(k/2).  The decomposition is the nearest-witness cells of
    ``gamma_k``'s witness (see the module docstring), gamma_k
    ``(root, vertices)`` pairs in witness order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    dom = gamma_k(g, k)
    dist = all_pairs_distances(g)
    cells: dict[int, list[int]] = {r: [] for r in dom.witness}
    for v in range(g.n):
        cells[min(dom.witness, key=lambda r: (dist[v][r], r))].append(v)
    return min(2 * dom.gamma, gamma_k(g, k // 2).gamma), list(cells.items())
