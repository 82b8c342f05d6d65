"""Workload instances, seeded relabeling and the correctness oracle.

Each workload is a fixed list of instances.  The benchmark builds every
graph itself (no ekdom import), relabels it from the seed and writes an
edge-list file, so ekdom receives only the generated file.

The oracle is a table, not a call into ekdom: ``expected`` is the eternal
distance-k domination number (paths and cycles from
``closed_forms.path_number`` / ``cycle_number``, perfect m-ary trees from
``mary.mary_number_recursive``, spiders from the solver at the seed
commit), and ``per_q`` maps each guard count q to its (dominating
configurations, survivors) pair as recorded at the seed commit.  Both
counts are isomorphism invariants, so they hold under every relabeling.
``test_e2ebench.py`` re-derives the closed-form entries from ekdom.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

#: The one (configuration, attack) check budget for every solve.  The
#: default of 5M makes ``_check_feasible`` refuse C20-C22 at k=1, whose
#: C(n+q-1, q) * n bound is 13M-94M; 100M resolves every instance.
BUDGET = 100_000_000


@dataclass(frozen=True)
class Instance:
    name: str
    family: str  # path | cycle | spider | mary
    params: tuple
    k: int
    expected: int
    per_q: dict  # q -> (configurations, survivors)
    shuffle: bool = True


def path_edges(n: int) -> tuple[int, list]:
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> tuple[int, list]:
    return n, [(i, (i + 1) % n) for i in range(n)]


def spider_edges(legs) -> tuple[int, list]:
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, edges


def mary_edges(m: int, d: int) -> tuple[int, list]:
    """Perfect m-ary tree of depth d in breadth-first order (as ``ekdom gen``)."""
    n = (m ** (d + 1) - 1) // (m - 1)
    return n, [((c - 1) // m, c) for c in range(1, n)]


_BUILDERS = {
    "path": lambda p: path_edges(*p),
    "cycle": lambda p: cycle_edges(*p),
    "spider": lambda p: spider_edges(p),
    "mary": lambda p: mary_edges(*p),
}


def build(inst: Instance) -> tuple[int, list]:
    return _BUILDERS[inst.family](inst.params)


def edge_list(inst: Instance, rng: random.Random) -> str:
    """The instance as an edge-list document, relabeled by ``rng``.

    Vertex ids follow first appearance in the file, so shuffling labels,
    edge order and endpoint order changes the ids ekdom works with.  An
    instance with ``shuffle=False`` is written in ``ekdom gen`` order.
    """
    n, edges = build(inst)
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    if inst.shuffle:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return "".join(f"{u} {v}\n" for u, v in edges)


def labeling_rng(workload: str, seed: int, rnd: int, inst: Instance) -> random.Random:
    """Relabeling stream for one (workload, seed, round, instance)."""
    return random.Random(f"{workload}:{seed}:{rnd}:{inst.name}")


WORKLOADS: dict[str, list[Instance]] = {
    # Multi-round fixed points; elimination is >95% of the solve.
    "elim": [
        Instance("P12-k1", "path", (12,), 1, 6, {4: (1, 0), 5: (44, 0), 6: (402, 64)}),
        Instance("P14-k1", "path", (14,), 1, 7, {5: (6, 0), 6: (150, 0), 7: (1344, 128)}),
        Instance("P14-k2", "path", (14,), 2, 5, {3: (4, 0), 4: (138, 0), 5: (1206, 504)}),
        Instance("S4444-k2", "spider", (4, 4, 4, 4), 2, 5, {4: (15, 0), 5: (557, 405)}),
        Instance("S333-k1", "spider", (3, 3, 3), 1, 5, {4: (14, 0), 5: (119, 32)}),
        Instance("S22222-k1", "spider", (2, 2, 2, 2, 2), 1, 6, {5: (31, 0), 6: (267, 192)}),
    ],
    # One round at q = gamma_k with large survivor sets and certificates.
    "certify": [
        Instance("C26-k2", "cycle", (26,), 2, 6, {6: (546, 546)}),
        Instance("C30-k3", "cycle", (30,), 3, 5, {5: (756, 756)}),
        Instance("C32-k3", "cycle", (32,), 3, 5, {5: (224, 224)}),
        Instance("T33-k2", "mary", (3, 3), 2, 4, {3: (1, 0), 4: (40, 40)}),
        Instance("T33-k3", "mary", (3, 3), 3, 2, {1: (1, 0), 2: (40, 40)}),
    ],
    # Few dominating configurations among 0.6M-4.3M multisets; enumeration
    # and gamma_k dominate, the kernel is a small share.
    "wide": [
        Instance("C20-k1", "cycle", (20,), 1, 7, {7: (20, 20)}),
        Instance("C21-k1", "cycle", (21,), 1, 7, {7: (3, 3)}),
        Instance("C22-k1", "cycle", (22,), 1, 8, {8: (99, 99)}),
        Instance("C30-k2", "cycle", (30,), 2, 6, {6: (5, 5)}),
        # n=85 exceeds the 64-vertex mask width, so the pure kernel runs.
        # Kept in gen order: its gamma_k search takes about 1.3 s there and
        # about 5 ms under shuffled ids, so shuffling would drop that layer.
        Instance("T43-k3", "mary", (4, 3), 3, 2, {1: (1, 0), 2: (85, 85)},
                 shuffle=False),
    ],
}
