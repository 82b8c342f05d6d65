"""Pure-Python elimination kernel (reference twin of ``_ckernel.c``).

Given all size-q dominating configurations of a graph, keep deleting every
configuration that cannot answer some attacked vertex with a surviving
configuration, until a full pass deletes nothing.  What survives is the
unique maximal family closed under defense at this size; the defended
number is the least q whose survivor set is non-empty.

An attack on an occupied vertex is always answerable by standing still,
so only unoccupied vertices are checked.  The expensive question "can
configuration i answer attack v with some surviving j" is amortised:

* per (i, v) we remember the last successor that worked (``wit``); while
  it stays alive the recheck is O(1);
* when it dies, scanning the candidate list for v (configurations whose
  support contains v, ascending) resumes from the stored cursor
  (``pos``).  Everything behind the cursor is either dead forever or
  failed the static movement test, so the cursor never moves backwards.

Each pass visits the configurations in input order.  The greatest fixed
point is unique, so the visiting order changes only ``rounds`` and
``checks``, never the survivors; to sweep in another order, permute
``states`` (``states[::-1]`` runs the reverse sweep).

Movement feasibility between two configurations is a perfect matching on
the q x q "guard can walk there" grid, decided by ``configs._match``.
Pair verdicts are static and memoised.  The input configurations must all
dominate the graph (as ``enumerate_dominating_configs`` yields them): a
lone guard then reaches every vertex, so at q = 1 every move is feasible.

The compiled twin runs the same sweep, cursors, budget test and matching
on C arrays, so the two agree byte for byte; this module is the reference
the parity tests compare it against and the kernel in use wherever the
extension was not built.

Both kernels return ``(alive, rounds, checks, exceeded)`` where ``alive``
is a bytearray of 0/1 flags over the input configurations, ``rounds``
counts full passes including the final quiet one, ``checks`` counts
(configuration, attack) evaluations, and ``exceeded`` reports that the
check budget ran out (in which case ``alive`` is meaningless).

Witness table: the caller passes ``wit``, an ``array('i')`` of
``len(states) * n`` items whose contents on entry are ignored; both
kernels sweep with ``wit[i][v]`` at index ``i * n + v`` and leave the
final table there.  For a surviving configuration i
and a vertex v that i leaves unoccupied, that entry is the least index
of a surviving configuration that occupies v and that i can move to in
one step: the final quiet pass rechecked the stored witness, and every
candidate behind the cursor is dead or unreachable.  States come in
lexicographic order from ``enumerate_dominating_configs``, so this is
the lexicographically least such survivor.  Other entries (dead i,
occupied v) are leftovers of the sweep, and when ``exceeded`` is set the
whole table means nothing.
"""
from __future__ import annotations

from array import array

from ..configs import _match

DEFAULT_BUDGET = 5_000_000


def _matcher(n: int, k: int, dist: list[int], states: list[tuple]):
    """Build the memoised pairwise movement test."""
    q = len(states[0])
    S = len(states)
    rows = [dist[u * n:(u + 1) * n] for u in range(n)]
    memo: dict[int, bool] = {}

    def feasible(i: int, j: int) -> bool:
        if i == j or q == 1:
            return True
        key = i * S + j
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _match(rows, states[i], states[j], k) is not None
        return hit

    return feasible


def run_elimination(n: int, k: int, dist: list[int], states: list[tuple],
                    wit: array, budget: int = DEFAULT_BUDGET):
    """Gauss-Seidel elimination: deletions take effect within the pass."""
    S = len(states)
    if len(wit) != S * n:
        raise ValueError("wit must hold len(states) * n items")
    if S == 0:
        return bytearray(), 0, 0, False
    support = []
    cand: list[list[int]] = [[] for _ in range(n)]
    for i, st in enumerate(states):
        sm = 0
        for u in set(st):
            sm |= 1 << u
            cand[u].append(i)
        support.append(sm)
    feasible = _matcher(n, k, dist, states)
    alive = bytearray([1]) * S
    pos = [[0] * n for _ in range(S)]
    wit[:] = array("i", [-1]) * (S * n)
    checks = 0
    rounds = 0
    changed = True
    exceeded = False
    while changed and not exceeded:
        changed = False
        rounds += 1
        for i in range(S):
            if not alive[i]:
                continue
            sup_i = support[i]
            pos_i = pos[i]
            base = i * n
            for v in range(n):
                if sup_i >> v & 1:
                    continue  # standing still answers an occupied vertex
                checks += 1
                if checks > budget:
                    exceeded = True
                    break
                w = wit[base + v]
                if w >= 0 and alive[w]:
                    continue
                cv = cand[v]
                top = len(cv)
                p = pos_i[v]
                while p < top:
                    j = cv[p]
                    if alive[j] and feasible(i, j):
                        break
                    p += 1
                pos_i[v] = p
                if p < top:
                    wit[base + v] = cv[p]
                else:
                    alive[i] = 0
                    changed = True
                    break
            if exceeded:
                break
    return alive, rounds, checks, exceeded
