"""Tree trimming rules with controlled effect on the eternal number.

Four rules carry exact or near-exact deltas:

* endpath: a hanging path of length k+1 whose inner vertices have degree
  two loses its first k+1 vertices; for k <= 2 the eternal number drops
  by exactly one (one guard is forever pinned to the hanging path), for
  k >= 3 by zero or one (see the function docstring for why exactness
  breaks).
* kpath: an interior path of length at most k between two vertices of
  degree other than two, where the trimmed side is a height-k subtree of
  diameter 2k and the kept side has eccentricity at least k from its end;
  deleting the trimmed side (keeping the path) drops the number by one.
* halfbranch: of several branches at a vertex that all fit inside radius
  floor(k/2), keep a single deepest thread and delete the rest; the
  number is unchanged.
* doublebranch: of several branches at a vertex that all fit inside
  radius k, at least two of which reach exactly k, keep one deepest
  thread in each of two such branches and delete the rest; unchanged.

For k = 2 there is additionally an interval rule: around a vertex at
distance two from some leaf, deleting those leaves together with the
qualifying neighbors changes the number by zero or one, and both outcomes
really occur; the slack is resolved by the game engine where feasible.

endpath walks ``t.adj`` from each leaf through degree-two vertices and
reads no distances; kpath finds its connecting paths the same way.
Every branch, eccentricity and diameter that kpath, the two branch rules
and the interval rule test is read off the cached
``all_pairs_distances(t)``: a tree has unique paths, so a connected
subtree has the same distances as the whole tree.

``reduce_tree`` composes these greedily (cheapest tests first, smallest
anchor vertex on ties) and converts the surviving core into two-sided
bounds through the static domination sandwich.  Its trace, each step and
``k2_sets``'s local structure are immutable ``NamedTuple`` records.
"""
from typing import Iterable, NamedTuple

from .domination import gamma_k
from .graph import Graph, all_pairs_distances, delete_vertices, is_tree


class ReductionStep(NamedTuple):
    kind: str
    removed: tuple[str, ...]            # labels, in the tree they were removed from
    anchors: tuple[tuple[str, str], ...]  # (role, label) pairs
    delta_low: int
    delta_high: int

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "removed": list(self.removed),
            "anchors": dict(self.anchors),
            "delta": [self.delta_low, self.delta_high],
        }


class ReductionTrace(NamedTuple):
    steps: list[ReductionStep]
    core: Graph
    delta_low: int
    delta_high: int
    lower_bound: int
    upper_bound: int

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "core": {
                "vertices": list(self.core.labels),
                "edges": [[self.core.labels[u], self.core.labels[v]]
                          for u, v in self.core.edges()],
            },
            "delta": [self.delta_low, self.delta_high],
            "bounds": [self.lower_bound, self.upper_bound],
        }

    def to_json_text(self) -> str:
        # Indented text needs json's Python encoder, so only this call
        # imports the json package.
        import json

        return json.dumps(self.to_json(), indent=2)


def _require_tree(t: Graph) -> None:
    if not is_tree(t):
        raise ValueError("reductions are defined on trees")


def _branch(dist, x: int, c: int) -> set[int]:
    """Vertices whose path to x runs through its neighbor c."""
    return {w for w in range(len(dist)) if dist[c][w] < dist[x][w]}


def _cut(t: Graph, removed: Iterable[int]) -> Graph:
    reduced, _ = delete_vertices(t, removed)
    return reduced


def _step(t: Graph, kind: str, removed: set[int],
          anchors: Iterable[tuple[str, int]], lo: int, hi: int) -> ReductionStep:
    return ReductionStep(
        kind=kind,
        removed=tuple(t.labels[v] for v in sorted(removed)),
        anchors=tuple((role, t.labels[v]) for role, v in anchors),
        delta_low=lo,
        delta_high=hi,
    )


# -- exact rules -------------------------------------------------------------

def apply_endpath_reduction(t: Graph, k: int) -> tuple[Graph, ReductionStep] | None:
    """Trim a hanging path of length k+1 (leaf plus k degree-two vertices).

    For k <= 2 the eternal number provably drops by exactly one: a guard
    is pinned within reach of the dangling leaf and cannot stand in for a
    guard of the remainder.  For k >= 3 that pinned guard can park next
    to the attachment vertex and cover deep into the remainder, and the
    drop is sometimes zero (a height-3 leg on a shallow spider already
    does it), so the recorded delta widens to the provable interval
    [0, 1]: deleting the path never raises the number (retracting the
    path onto its attachment preserves any defense) and one extra guard
    always suffices to re-cover it.
    """
    _require_tree(t)
    exact_low = 1 if k <= 2 else 0
    for leaf in range(t.n):
        if t.degree(leaf) != 1:
            continue
        removed = [leaf]
        prev, cur = leaf, t.adj[leaf][0]
        ok = True
        for _ in range(k):
            if t.degree(cur) != 2:
                ok = False
                break
            removed.append(cur)
            nxt = t.adj[cur][0] if t.adj[cur][0] != prev else t.adj[cur][1]
            prev, cur = cur, nxt
        if ok:
            step = _step(t, "endpath", set(removed),
                         [("leaf", leaf), ("attach", cur)], exact_low, 1)
            return _cut(t, removed), step
    return None


def apply_kpath_reduction(t: Graph, k: int) -> tuple[Graph, ReductionStep] | None:
    """Cut a height-k, diameter-2k side tree off an interior path.

    The connecting path may be any length from one edge up to k (the
    single-edge case is exactly how perfect m-ary trees telescope); its
    inner vertices must have degree two and its endpoints must not.
    """
    _require_tree(t)
    sites = []
    for x in range(t.n):
        if t.degree(x) == 2 or t.degree(x) == 0:
            continue
        for first in t.adj[x]:
            path = [x, first]
            while t.degree(path[-1]) == 2:
                a, b = t.adj[path[-1]]
                path.append(a if a != path[-2] else b)
            y = path[-1]
            if len(path) - 1 <= k:
                sites.append((x, y, path))
    dist = all_pairs_distances(t)
    for x, y, path in sorted(sites, key=lambda s: (s[0], s[1])):
        side_x = _branch(dist, path[1], x)    # x's side once its path edge is cut
        side_y = _branch(dist, path[-2], y)   # likewise for y
        if max(dist[x][w] for w in side_x) != k:
            continue
        if max(dist[u][w] for u in side_x for w in side_x) != 2 * k:
            continue
        if max(dist[y][w] for w in side_y) < k:
            continue
        removed = side_x - {x}
        step = _step(t, "kpath", removed, [("x", x), ("y", y)], 1, 1)
        return _cut(t, removed), step
    return None


def _collapse(t: Graph, kind: str, radius: int,
              roles: tuple[str, ...]) -> tuple[Graph, ReductionStep] | None:
    """Keep one thread per tip role in the first branches at a vertex that
    reach exactly the radius; delete the rest of the branches within it."""
    _require_tree(t)
    if radius < 1:
        return None
    dist = all_pairs_distances(t)
    for x in range(t.n):
        branches = {c: _branch(dist, x, c) for c in t.adj[x]}
        eligible = [c for c, verts in branches.items()
                    if max(dist[x][w] for w in verts) <= radius]
        deep = [c for c in sorted(eligible)
                if any(dist[x][w] == radius for w in branches[c])]
        if len(deep) < len(roles):
            continue
        tips = [min(w for w in branches[c] if dist[x][w] == radius)
                for c in deep[:len(roles)]]
        keep = {w for w in range(t.n)  # the paths from x to the tips
                if any(dist[x][w] + dist[w][tip] == dist[x][tip] for tip in tips)}
        removed = set().union(*(branches[c] for c in eligible)) - keep
        if not removed:
            continue
        step = _step(t, kind, removed, [("x", x), *zip(roles, tips)], 0, 0)
        return _cut(t, removed), step
    return None


def apply_halfbranch_trim(t: Graph, k: int) -> tuple[Graph, ReductionStep] | None:
    """Collapse all radius-floor(k/2) branches at a vertex onto one thread."""
    return _collapse(t, "halfbranch", k // 2, ("kept_tip",))


def apply_doublebranch_trim(t: Graph, k: int) -> tuple[Graph, ReductionStep] | None:
    """Collapse all radius-k branches at a vertex onto two depth-k threads."""
    return _collapse(t, "doublebranch", k, ("tip1", "tip2"))


# -- the k = 2 interval rule -------------------------------------------------

class K2Sets(NamedTuple):
    """Local structure around x for the k = 2 deletion rule.

    leaves_at_two: leaves at distance exactly two from x.
    two_ring: vertices at distance exactly two from one of those leaves.
    stems: neighbors of x that are leaves or adjacent to one of the leaves.
    multi_linked / single_linked: stems split by how many two_ring
    neighbors they have (at least two / exactly one).
    """
    leaves_at_two: frozenset[int]
    two_ring: frozenset[int]
    stems: frozenset[int]
    multi_linked: frozenset[int]
    single_linked: frozenset[int]


def k2_sets(t: Graph, x: int) -> K2Sets:
    _require_tree(t)
    dist = all_pairs_distances(t)
    if t.degree(x) <= 1:
        raise ValueError(f"vertex {x} is a leaf (or isolated)")
    leaves = frozenset(v for v in range(t.n)
                       if t.degree(v) == 1 and dist[x][v] == 2)
    if not leaves:
        raise ValueError(f"vertex {x} has no leaf at distance exactly 2")
    ring = frozenset(v for v in range(t.n)
                     if any(dist[v][l] == 2 for l in leaves))
    stems = frozenset(s for s in t.adj[x]
                      if t.degree(s) == 1 or any(w in leaves for w in t.adj[s]))
    multi = frozenset(s for s in stems
                      if sum(1 for w in t.adj[s] if w in ring) >= 2)
    single = frozenset(s for s in stems
                       if sum(1 for w in t.adj[s] if w in ring) == 1)
    assert multi | single == stems and x in ring
    return K2Sets(leaves, ring, stems, multi, single)


def k2_reduce(t: Graph, x: int) -> tuple[Graph, ReductionStep]:
    """Delete the distance-two leaves and stems around x (k = 2 only).

    The eternal distance-2 domination number drops by zero or one; the
    caller resolves which by solving both sides where feasible.  The
    remainder must stay connected: when a stem carries a deeper subtree
    the deletion would strand it, the zero-or-one bracket genuinely fails
    (stranded components need their own guards), and the site is refused.
    """
    sets = k2_sets(t, x)
    removed = set(sets.leaves_at_two | sets.stems)
    if len(removed) >= t.n:
        raise ValueError("deletion would remove the whole tree")
    reduced = _cut(t, removed)
    if not is_tree(reduced):
        raise ValueError(
            f"deleting the leaves and stems around {x} disconnects the remainder")
    step = _step(t, "k2", removed, [("x", x)], 0, 1)
    return reduced, step


def _first_k2_hit(t: Graph) -> tuple[Graph, ReductionStep] | None:
    for x in range(t.n):
        try:
            return k2_reduce(t, x)
        except ValueError:
            continue
    return None


# -- composition -------------------------------------------------------------

def reduce_tree(t: Graph, k: int) -> ReductionTrace:
    """Greedily trim to a core and report two-sided bounds.

    Rules with exact deltas run to a fixed point first (endpath leads for
    k <= 2 where it is exact and cheapest, trails for k >= 3 where it
    only brackets); for k = 2 the interval rule then fires where it keeps
    the remainder connected, and the loop repeats.  Bounds on the input
    combine the accumulated deltas with the static domination sandwich of
    the core.
    """
    _require_tree(t)
    if k < 1:
        raise ValueError("k must be at least 1")
    rules = [apply_endpath_reduction, apply_doublebranch_trim,
             apply_halfbranch_trim, apply_kpath_reduction]
    if k >= 3:
        rules = rules[1:] + rules[:1]  # exact deltas before the bracket
    steps: list[ReductionStep] = []
    cur = t
    while True:
        hit = None
        for rule in rules:
            hit = rule(cur, k)
            if hit is not None:
                break
        if hit is None and k == 2 and cur.n > 1:
            hit = _first_k2_hit(cur)
        if hit is None:
            break
        cur, step = hit
        steps.append(step)
    lo = sum(s.delta_low for s in steps)
    hi = sum(s.delta_high for s in steps)
    return ReductionTrace(
        steps=steps,
        core=cur,
        delta_low=lo,
        delta_high=hi,
        lower_bound=lo + gamma_k(cur, k).gamma,
        upper_bound=hi + gamma_k(cur, k // 2).gamma,
    )

