"""Canonical guard configurations and the one-step movement relation.

A configuration is a multiset of guard positions, canonically stored as a
non-decreasing tuple of vertex ids.  ``enumerate_dominating_configs``
lists the dominating configurations of one size; the walk behind it runs
in the kernel layer.  Configuration D can move to D' when the guards
admit a bijection onto the target positions in which every guard walks
distance at most k.  That is a perfect-matching question on the q x q
feasibility grid, decided by simple augmenting paths (q is tiny at desk
scale) in ``place``, the one Python matcher and the twin of ``place`` in
``_kernel/_ckernel.c``.  The pure sweep places each candidate's posts on
the swept state's guards with it; ``assign``, behind the pure closure
and ``transform_assignment``, places the guards on the posts instead,
which on symmetric balls finds the same assignment as a source-side
search.
"""
from __future__ import annotations

from array import array
from typing import Iterable

from . import _kernel
from .domination import ball_masks
from .graph import DistMatrix

Config = tuple  # tuple[int, ...], sorted non-decreasing, length >= 1


def canonical(positions: Iterable[int]) -> Config:
    cfg = tuple(sorted(positions))
    if not cfg:
        raise ValueError("a configuration needs at least one guard")
    return cfg


def enumerate_dominating_configs(dist: DistMatrix, k: int, q: int,
                                 limit: int | None = None,
                                 work: array | None = None) -> list[Config]:
    """Size-q multisets whose support distance-k dominates, lexicographically.

    The suffix-pruned walk runs in the kernel layer
    (``_kernel.enumerate_states``, whose contract is in ``_kernel.pure``),
    on the balls of ``domination.ball_masks`` packed into 64-bit words.
    With ``limit``, the walk stops as soon as it holds ``limit + 1``
    states and returns those.  ``work``, when given as an ``array('q')``
    of 1 item, receives the number of prefixes the walk visited.
    """
    n = len(dist)
    masks = _kernel.pack_masks(ball_masks(dist, k), n)
    return _kernel.enumerate_states(n, q, masks, limit, work)


def place(near, dst: Config, c: int, holder: list[int], guard: list[int]) -> bool:
    """Place post c of dst on a free guard by an augmenting path.

    ``near[p][t]`` is true when guard p walks to vertex t in one step.
    ``holder[p]`` is the post guard p holds (-1 when free) and
    ``guard[c]`` the guard holding post c; both are updated on success,
    and a failed search changes neither.  The path is searched depth
    first, each post trying the guards in ascending order, on an explicit
    stack, so the number of guards is not bounded by the interpreter's
    recursion limit.
    """
    q = len(holder)
    seen = [False] * q
    path = []  # (post, guard) steps of the path so far
    t = dst[c]
    p = 0
    while True:
        while p < q and (seen[p] or not near[p][t]):
            p += 1
        if p < q:
            seen[p] = True
            path.append((c, p))
            if holder[p] < 0:
                for c, p in path:
                    holder[p] = c
                    guard[c] = p
                return True
            c = holder[p]
            t = dst[c]
            p = 0
        elif path:  # no free guard from post c: back up to the step before
            c, p = path.pop()
            t = dst[c]
            p += 1
        else:
            return False


def assign(near, src: Config) -> list[int] | None:
    """Match the guards of src onto the posts whose rows ``near`` holds.

    ``near[c][u]`` is true when vertex u lies within one step of post c.
    Returns ``owner``, where guard ``owner[c]`` of src walks to post c,
    or None when no perfect matching exists.  Movement is symmetric, so
    placing the guards of src, in order, on the posts (tried in ascending
    order) is step for step the textbook source-side search in which
    each guard in turn looks for a post, and it finds the same owners.
    """
    q = len(src)
    owner, post = [-1] * q, [0] * q
    for p in range(q):
        if not place(near, src, p, owner, post):
            return None
    return owner


def transform_assignment(dist: DistMatrix, src: Config, dst: Config,
                         k: int) -> tuple[tuple[int, int], ...] | None:
    """A witnessing guard-to-target move list for src -> dst, or None.

    Moves are (from_vertex, to_vertex) pairs, one per guard, each of
    length at most k; their sources re-sort to src and targets to dst.
    """
    if len(src) != len(dst):
        raise ValueError("configurations differ in size")
    if k < 0:
        raise ValueError("k must be non-negative")
    owner = assign([[d <= k for d in dist[t]] for t in dst], src)
    if owner is None:
        return None
    moves = [(0, 0)] * len(src)
    for c, p in enumerate(owner):
        moves[p] = (src[p], dst[c])
    return tuple(moves)
