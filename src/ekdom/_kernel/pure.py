"""Pure-Python elimination kernel and certificate closure (reference twins
of ``_ckernel.c``).

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
Pair verdicts are static and memoised.

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

Certificate closure: ``certificate_rows`` closes the least survivor
under best responses, reading unoccupied attacks off that table; its
contract is in its docstring, and the compiled twin returns the same
``(members, rows)``.
"""
from __future__ import annotations

from array import array

from ..configs import _match
from . import DEFAULT_BUDGET


def _matcher(n: int, k: int, dist: list[int], states: list[tuple]):
    """Build the memoised pairwise movement test."""
    S = len(states)
    rows = [dist[u * n:(u + 1) * n] for u in range(n)]
    memo: dict[int, bool] = {}

    def feasible(i: int, j: int) -> bool:
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


def certificate_rows(n: int, k: int, dist: list[int], states: list[tuple],
                     alive: bytearray, wit: array, cap: int):
    """Close the least survivor under best responses, as certificate rows.

    ``alive`` and ``wit`` are what ``run_elimination`` left for
    ``states`` (lexicographically ordered).  The response to (member i,
    attack v) is the least live state holding v that i reaches in one
    step: for an unoccupied v the witness table names it; for an occupied
    v the live holders of v are scanned in ascending order, a scan that
    ends at i itself.  Breadth-first from the least live state, each
    response is matched once with ``configs._match`` (a state can reach
    itself by a non-identity assignment, and the rows record the
    assignment).

    Returns ``(members, rows)``: ``members`` lists the closure's state
    indices in ascending order, and ``rows[r * n + v]`` is
    ``[next, t_1, ..., t_q]`` for the r-th member attacked at v, where
    guard p (its p-th post) walks to the vertex at post ``t_p`` of member
    ``next``, written as that vertex's first post.  Returns None when the
    closure has more than ``cap`` members, and ``([], [])`` when nothing
    is alive.  Raises ValueError when the table names no live state that
    answers an attack.
    """
    S = len(states)
    if len(alive) != S:
        raise ValueError("alive must hold len(states) flags")
    if len(wit) != S * n:
        raise ValueError("wit must hold len(states) * n items")
    live = [i for i in range(S) if alive[i]]
    if not live:
        return [], []
    dist_rows = [dist[u * n:(u + 1) * n] for u in range(n)]
    holders: list[list[int]] = [[] for _ in range(n)]
    for i in live:
        for v in set(states[i]):
            holders[v].append(i)
    order = [live[0]]  # members in order of discovery
    slot = {live[0]: 0}
    answers = []  # per member found: its n rows, next still a state index
    for i in order:
        if len(order) > cap:
            return None
        cur = states[i]
        out = []
        for v in range(n):
            if v in cur:
                tries = holders[v]
            else:
                w = wit[i * n + v]
                tries = (w,) if 0 <= w < S and alive[w] else ()
            for j in tries:
                owner = _match(dist_rows, cur, states[j], k)
                if owner is not None:
                    break
            else:
                raise ValueError(f"no live state answers attack {v} on state {i}: "
                                 "the witness table does not fit alive")
            dst = states[j]
            row = [j] + [0] * len(cur)
            for c, p in enumerate(owner):
                row[1 + p] = dst.index(dst[c])
            out.append(row)
            if j not in slot:
                slot[j] = len(order)
                order.append(j)
        answers.append(out)
    members = sorted(order)
    rank = {i: r for r, i in enumerate(members)}
    rows = []
    for i in members:
        for row in answers[slot[i]]:
            row[0] = rank[row[0]]
            rows.append(row)
    return members, rows
