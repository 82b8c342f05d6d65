"""Configurations and the movement relation, against permutation oracles."""
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekdom.closed_forms import path_graph
from ekdom.configs import canonical, enumerate_dominating_configs, transform_assignment
from ekdom.graph import all_pairs_distances

from helpers import (DEFAULT_SEED, oracle_dominating_multisets, oracle_transforms,
                     random_connected_graph, random_graph, source_side_match, transforms)


def test_canonical_sorts_and_rejects_empty():
    assert canonical([3, 1, 1]) == (1, 1, 3)
    with pytest.raises(ValueError):
        canonical([])


def test_enumeration_p5_single_guard():
    # Brute force: of the five vertices only the middle one 2-dominates P_5
    # (each off-center vertex is 3 away from the far end).
    g = path_graph(5)
    assert oracle_dominating_multisets(g, 2, 1) == [(2,)]
    assert enumerate_dominating_configs(all_pairs_distances(g), 2, 1) == [(2,)]


def test_enumeration_trivial_cases():
    p2 = path_graph(2)
    assert enumerate_dominating_configs(all_pairs_distances(p2), 1, 2) == \
        [(0, 0), (0, 1), (1, 1)]
    p5 = path_graph(5)
    assert enumerate_dominating_configs(all_pairs_distances(p5), 1, 1) == []


def test_enumeration_matches_oracle_and_bound():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(10):
        g = random_connected_graph(rng.randint(2, 7), 0.3, rng)
        d = all_pairs_distances(g)
        for k in (1, 2):
            for q in (1, 2, 3):
                got = enumerate_dominating_configs(d, k, q)
                assert got == oracle_dominating_multisets(g, k, q)
                assert len(got) <= comb(g.n + q - 1, q)
                assert got == sorted(got)


def test_transform_examples_on_p5():
    d = all_pairs_distances(path_graph(5))
    assert transforms(d, (0, 4), (2, 2), 2)
    assert not transforms(d, (0, 1), (4, 4), 2)
    assert transforms(d, (1, 3), (1, 3), 2)


def test_transform_assignment_is_a_witness():
    d = all_pairs_distances(path_graph(5))
    moves = transform_assignment(d, (0, 4), (2, 2), 2)
    assert sorted(m[0] for m in moves) == [0, 4]
    assert sorted(m[1] for m in moves) == [2, 2]
    assert all(d[a][b] <= 2 for a, b in moves)


def test_transform_size_mismatch():
    d = all_pairs_distances(path_graph(3))
    with pytest.raises(ValueError):
        transforms(d, (0,), (1, 2), 1)


def test_matching_agrees_with_permutation_oracle():
    rng = random.Random(DEFAULT_SEED + 1)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 7), 0.3, rng)
        d = all_pairs_distances(g)
        q = rng.randint(1, 4)
        k = rng.randint(1, 2)
        src = canonical(rng.choices(range(g.n), k=q))
        dst = canonical(rng.choices(range(g.n), k=q))
        assert transforms(d, src, dst, k) == oracle_transforms(g, src, dst, k)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(n=st.integers(1, 10), extra=st.floats(0.0, 0.5), rng=st.randoms(use_true_random=False),
       connected=st.booleans(), k=st.integers(1, 3), q=st.integers(1, 6),
       reachable=st.booleans())
def test_transform_assignment_moves_as_the_source_side_search(n, extra, rng, connected,
                                                              k, q, reachable):
    # Certificate rows record these assignments, and all three closures
    # (compiled, pure and the tests' reference) share the matcher behind
    # them, so their parity cannot pin the assignment itself.
    g = random_graph(n, extra, rng, connected)
    d = all_pairs_distances(g)
    src = canonical(rng.choices(range(n), k=q))
    if reachable:  # each guard walks somewhere within k: dst is reachable
        dst = canonical(rng.choice([t for t in range(n) if d[u][t] <= k]) for u in src)
    else:
        dst = canonical(rng.choices(range(n), k=q))
    owner = source_side_match({u: [x <= k for x in d[u]] for u in src}, src, dst)
    expected = None
    if owner is not None:  # guard p's move, in guard order
        expected = tuple((src[p], dst[owner.index(p)]) for p in range(q))
    assert transform_assignment(d, src, dst, k) == expected


def test_reflexive_and_symmetric():
    rng = random.Random(DEFAULT_SEED + 2)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 7), 0.3, rng)
        d = all_pairs_distances(g)
        q = rng.randint(1, 4)
        src = canonical(rng.choices(range(g.n), k=q))
        dst = canonical(rng.choices(range(g.n), k=q))
        assert transforms(d, src, src, 1)
        assert transforms(d, src, dst, 2) == transforms(d, dst, src, 2)


def test_hall_violation_implies_rejection():
    # Whenever some guard sub-multiset can reach fewer targets than its
    # size, the move must be rejected.
    rng = random.Random(DEFAULT_SEED + 3)
    from itertools import combinations
    for _ in range(30):
        g = random_connected_graph(rng.randint(3, 7), 0.25, rng)
        d = all_pairs_distances(g)
        q = rng.randint(2, 4)
        k = 1
        src = canonical(rng.choices(range(g.n), k=q))
        dst = canonical(rng.choices(range(g.n), k=q))
        violated = False
        for size in range(1, q + 1):
            for rows in combinations(range(q), size):
                reachable = sum(1 for c in range(q)
                                if any(d[src[r]][dst[c]] <= k for r in rows))
                if reachable < size:
                    violated = True
        if violated:
            assert not transforms(d, src, dst, k)
