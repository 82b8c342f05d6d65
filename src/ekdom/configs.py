"""Canonical guard configurations and the one-step movement relation.

A configuration is a multiset of guard positions, canonically stored as a
non-decreasing tuple of vertex ids.  Configuration D can move to D' when
the guards admit a bijection onto the target positions in which every
guard walks distance at most k.  That is a perfect-matching question on
the q x q feasibility grid, decided here by simple augmenting paths (q is
tiny at desk scale).
"""
from __future__ import annotations

from typing import Iterable

from .domination import ball_masks
from .graph import DistMatrix

Config = tuple  # tuple[int, ...], sorted non-decreasing, length >= 1


def canonical(positions: Iterable[int]) -> Config:
    cfg = tuple(sorted(positions))
    if not cfg:
        raise ValueError("a configuration needs at least one guard")
    return cfg


class _LimitReached(Exception):
    """Raised inside the enumeration once it holds more than ``limit`` states."""


def enumerate_dominating_configs(dist: DistMatrix, k: int, q: int,
                                 limit: int | None = None) -> list[Config]:
    """Size-q multisets whose support distance-k dominates, lexicographically.

    Guards are placed in non-decreasing order, so every guard still to
    come sits at some vertex >= v.  Two suffix tables over the guards
    v..n-1 prune the walk: ``reach[v]``, the union of their balls, must
    complete the cover, and ``widest[v]``, their largest ball, times the
    free slots must be at least the number of uncovered vertices.  Both
    tests only get stricter as v grows, so the first failure ends the
    loop, and the output is the same list in the same order as the
    unpruned walk over all C(n+q-1, q) multisets.

    With ``limit``, the walk stops as soon as it holds ``limit + 1``
    states and returns those, so a caller that budgets on the number of
    dominating configurations never materialises more than it can afford.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    n = len(dist)
    balls = ball_masks(dist, k)
    full = (1 << n) - 1
    reach = [0] * (n + 1)
    widest = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        reach[v] = reach[v + 1] | balls[v]
        widest[v] = max(widest[v + 1], balls[v].bit_count())
    out: list[Config] = []
    state = [0] * q

    def rec(pos: int, lo: int, covered: int) -> None:
        if pos == q:
            if covered == full:
                out.append(tuple(state))
                if limit is not None and len(out) > limit:
                    raise _LimitReached
            return
        need = (full & ~covered).bit_count()
        slots = q - pos
        for v in range(lo, n):
            if covered | reach[v] != full or need > slots * widest[v]:
                break
            state[pos] = v
            rec(pos + 1, v, covered | balls[v])

    if n:
        try:
            rec(0, 0, 0)
        except _LimitReached:
            pass
    return out


def _match(dist: DistMatrix, src: Config, dst: Config, k: int) -> list[int] | None:
    """Augmenting-path matching; returns dst-position -> src-position or None."""
    q = len(src)
    owner = [-1] * q  # owner[c] = src position matched to dst position c

    def augment(p: int, seen: list[bool]) -> bool:
        row = dist[src[p]]
        for c in range(q):
            if not seen[c] and row[dst[c]] <= k:
                seen[c] = True
                if owner[c] < 0 or augment(owner[c], seen):
                    owner[c] = p
                    return True
        return False

    for p in range(q):
        if not augment(p, [False] * q):
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
    owner = _match(dist, src, dst, k)
    if owner is None:
        return None
    moves = [(0, 0)] * len(src)
    for c, p in enumerate(owner):
        moves[p] = (src[p], dst[c])
    return tuple(moves)
