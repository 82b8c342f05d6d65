"""The two covering searches: pruned output against oracles, pinned witnesses.

``enumerate_dominating_configs`` and ``gamma_k`` prune with lower bounds
that may only cut branches holding no solution, so their outputs (the
configuration list with its order, and the first witness found) must not
depend on the pruning.  The property tests compare against brute force on
connected and disconnected graphs; the pinned witnesses, recorded before
the pruning was added, catch any change to the branch order, which would
change ``ekdom gamma`` output.
"""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ekdom.configs import enumerate_dominating_configs
from ekdom.domination import gamma_k, is_distance_k_dominating
from ekdom.graph import all_pairs_distances
from ekdom.mary import build_perfect_mary

from helpers import (DEFAULT_SEED, oracle_dominating_multisets, oracle_gamma,
                     random_connected_graph, random_graph)


graphs = st.builds(random_graph, n=st.integers(1, 10), extra=st.floats(0.0, 0.5),
                   rng=st.randoms(use_true_random=False), connected=st.booleans())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(g=graphs, k=st.integers(0, 3), q=st.integers(1, 4))
def test_enumeration_matches_oracle_in_order(g, k, q):
    got = enumerate_dominating_configs(all_pairs_distances(g), k, q)
    assert got == oracle_dominating_multisets(g, k, q)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(g=graphs, k=st.integers(0, 3))
def test_gamma_matches_oracle_with_dominating_witness(g, k):
    result = gamma_k(g, k)
    assert result.gamma == oracle_gamma(g, k) == len(result.witness)
    assert is_distance_k_dominating(all_pairs_distances(g), result.witness, k)


def test_enumeration_limit_stops_one_past():
    g = random_connected_graph(9, 0.2, random.Random(DEFAULT_SEED))
    d = all_pairs_distances(g)
    full = enumerate_dominating_configs(d, 1, 4)
    assert len(full) > 10
    assert enumerate_dominating_configs(d, 1, 4, limit=10) == full[:11]
    assert enumerate_dominating_configs(d, 1, 4, limit=len(full)) == full


def test_gamma_witness_pinned_on_the_4ary_tree():
    # Gen order, radius 1: the search must prove 16 guards insufficient.
    result = gamma_k(build_perfect_mary(4, 3), 1)
    assert result.gamma == 17
    assert result.witness == (1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                              17, 18, 19, 20)


def test_gamma_witnesses_pinned_on_random_graphs():
    rng = random.Random(DEFAULT_SEED)
    expected = [
        ((20, 0.0, 1), 6, (1, 5, 11, 12, 15, 18)),
        ((24, 0.05, 1), 7, (1, 4, 5, 6, 8, 10, 13)),
        ((18, 0.1, 2), 2, (0, 14)),
        ((30, 0.0, 2), 6, (11, 12, 14, 15, 22, 29)),
    ]
    for (n, extra, k), gamma, witness in expected:
        result = gamma_k(random_connected_graph(n, extra, rng), k)
        assert (result.gamma, result.witness) == (gamma, witness)
