"""Static distance-k domination against exhaustive oracles."""
import random
from itertools import combinations

import pytest

from ekdom.closed_forms import cycle_graph, path_graph, star_graph
from ekdom.domination import gamma_k, is_distance_k_dominating
from ekdom.graph import Graph, all_pairs_distances

from helpers import (DEFAULT_SEED, delete_edge, oracle_dominating_multisets,
                     oracle_gamma, random_connected_graph)


def test_predicate_examples():
    p5 = path_graph(5)
    d = all_pairs_distances(p5)
    assert is_distance_k_dominating(d, [2], 2)
    assert not is_distance_k_dominating(d, [0], 2)  # leaves 3 and 4 exposed
    assert is_distance_k_dominating(d, range(5), 0)


def test_gamma_examples():
    assert gamma_k(cycle_graph(10), 2).gamma == 2
    assert gamma_k(star_graph(4), 1).gamma == 1
    assert gamma_k(star_graph(4), 3).gamma == 1


def test_p7_k1_matches_exhaustive_search():
    # Independent oracle: try every subset of size at most 3.
    g = path_graph(7)
    best = min(size for size in range(1, 4)
               for s in combinations(range(7), size)
               if is_distance_k_dominating(all_pairs_distances(g), s, 1))
    assert best == 3
    assert gamma_k(g, 1).gamma == 3


def test_path_formula_small_range():
    for n in range(1, 21):
        g = path_graph(n)
        for k in range(0, 5):
            assert gamma_k(g, k).gamma == -(-n // (2 * k + 1))


def test_witness_is_dominating_and_optimal_on_random_graphs():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(15):
        g = random_connected_graph(rng.randint(2, 8), 0.3, rng)
        for k in (1, 2):
            result = gamma_k(g, k)
            d = all_pairs_distances(g)
            assert is_distance_k_dominating(d, result.witness, k)
            assert len(result.witness) == result.gamma == oracle_gamma(g, k)


def test_gamma_non_increasing_in_k_and_edge_removal_monotone():
    rng = random.Random(DEFAULT_SEED + 1)
    for _ in range(10):
        g = random_connected_graph(rng.randint(3, 8), 0.3, rng)
        values = [gamma_k(g, k).gamma for k in range(0, 4)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for u, v in g.edges():
            assert gamma_k(delete_edge(g, u, v), 2).gamma >= gamma_k(g, 2).gamma


def test_multiset_duplicates_never_help():
    rng = random.Random(DEFAULT_SEED + 2)
    for _ in range(8):
        g = random_connected_graph(rng.randint(2, 7), 0.3, rng)
        gamma = gamma_k(g, 1).gamma
        multis = oracle_dominating_multisets(g, 1, gamma)
        assert multis, "a dominating multiset of the optimal size must exist"
        assert min(len(set(cfg)) for cfg in multis) == gamma


def test_disconnected_graphs_sum_over_components():
    g = Graph.build(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])
    assert gamma_k(g, 1).gamma == gamma_k(path_graph(3), 1).gamma + gamma_k(path_graph(5), 1).gamma


def test_rejects_negative_radius():
    with pytest.raises(ValueError):
        gamma_k(path_graph(3), -1)
