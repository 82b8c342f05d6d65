"""Exact distance-k domination numbers and dominating-set predicates.

A multiset of guard positions distance-k dominates a graph when every
vertex lies within distance k of some guard.  Multiplicity never matters
for the static problem, so the exact search works over plain vertex sets.

The search enumerates candidate sets by increasing cardinality (so the
first witness found is minimum), branching on the guards that can cover
the lowest uncovered vertex.  A greedy cover provides the upper bound that
terminates the iteration deepening.

Two lower bounds prune a branch whose free guard slots cannot finish the
cover: the counting bound (uncovered vertices exceed slots times the
largest ball) and the disjoint-demand bound.  For the latter, u covers t
iff t lies in ball(u) iff u lies in ball(t), so ball(t) is the set of
coverers of t; scanning the uncovered vertices in ascending order and
counting each whose ball misses the balls already counted yields vertices
that no single guard can serve two of.  Both bounds only cut branches
that hold no solution, so the search still visits the solutions in the
same order and returns the same witness.
"""
from typing import Iterable, NamedTuple, Sequence

from .graph import DistMatrix, Graph, all_pairs_distances, memo


class DominationResult(NamedTuple):
    gamma: int
    witness: tuple[int, ...]


def ball_masks(dist: DistMatrix, k: int) -> list[int]:
    """Bitmask of the closed distance-k neighborhood of every vertex."""
    n = len(dist)
    masks = []
    for u in range(n):
        m = 0
        row = dist[u]
        for v in range(n):
            if row[v] <= k:
                m |= 1 << v
        masks.append(m)
    return masks


def graph_balls(g: Graph, k: int) -> tuple[int, ...]:
    """``ball_masks`` of g at radius k, built once per graph and radius."""
    return memo(g, ("balls", k), lambda: tuple(ball_masks(all_pairs_distances(g), k)))


def is_distance_k_dominating(dist: DistMatrix, guards: Iterable[int], k: int) -> bool:
    """True iff every vertex is within distance k of some guard."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return covers(ball_masks(dist, k), guards)


def covers(balls: Sequence[int], guards: Iterable[int]) -> bool:
    """True iff the balls (from ``ball_masks``) of the guards hold every vertex."""
    covered = 0
    for u in guards:
        covered |= balls[u]
    return covered == (1 << len(balls)) - 1


def _greedy_cover(balls: Sequence[int], full: int) -> list[int]:
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best, gain = -1, -1
        for v, ball in enumerate(balls):
            g = (ball | covered).bit_count() - covered.bit_count()
            if g > gain:
                best, gain = v, g
        chosen.append(best)
        covered |= balls[best]
    return chosen


def gamma_k(g: Graph, k: int) -> DominationResult:
    """Exact minimum distance-k domination number with a witness set.

    Works on disconnected graphs as well: guards never cover across
    components, so the search naturally computes the per-component sum.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if g.n == 0:
        return DominationResult(0, ())
    return memo(g, ("gamma", k), lambda: _min_cover(graph_balls(g, k)))


def _min_cover(balls: Sequence[int]) -> DominationResult:
    n = len(balls)
    full = (1 << n) - 1
    greedy = _greedy_cover(balls, full)
    # Guards that can cover a vertex, largest ball first for fast witnesses.
    by_reach = sorted(range(n), key=lambda v: (-balls[v].bit_count(), v))
    coverers = [[u for u in by_reach if balls[u] >> t & 1] for t in range(n)]
    max_ball = max(b.bit_count() for b in balls)

    def search(size: int, covered: int, chosen: list[int]) -> tuple[int, ...] | None:
        if covered == full:
            return tuple(sorted(chosen))
        slots = size - len(chosen)
        uncovered = full & ~covered
        if slots == 0 or uncovered.bit_count() > slots * max_ball:
            return None
        # Disjoint-demand bound: uncovered vertices whose coverer sets
        # (their own balls) are pairwise disjoint each need a new guard.
        demand, claimed, rest = 0, 0, uncovered
        while rest:
            low = rest & -rest
            rest ^= low
            ball = balls[low.bit_length() - 1]
            if not ball & claimed:
                claimed |= ball
                demand += 1
                if demand > slots:
                    return None
        target = (uncovered & -uncovered).bit_length() - 1  # lowest uncovered vertex
        for u in coverers[target]:
            if u in chosen:
                continue
            found = search(size, covered | balls[u], chosen + [u])
            if found is not None:
                return found
        return None

    for size in range(1, len(greedy)):
        witness = search(size, 0, [])
        if witness is not None:
            return DominationResult(size, witness)
    return DominationResult(len(greedy), tuple(sorted(greedy)))
