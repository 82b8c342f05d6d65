"""Power equivalence, spanning-tree and decomposition bounds."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekdom.bounds import (bfs_spanning_tree, decomposition_bound,
                          power_equivalence_check, spanning_tree_upper_bound)
from ekdom.closed_forms import (complete_graph, cycle_graph, path_graph,
                                path_number)
from ekdom.graph import graph_power, is_connected, is_tree
from ekdom.mary import build_perfect_mary
from ekdom.solver import eternal_number, eternal_survivors, is_eternal_set

from helpers import (DEFAULT_SEED, oracle_gamma, oracle_partition_number,
                     oracle_reaches_within, random_connected_graph, random_graph)


def solve(g, k):
    return eternal_number(g, k).gamma_eternal


def test_power_equivalence_examples():
    r = power_equivalence_check(path_graph(5), 2)
    assert r.gamma_direct == r.gamma_power == 2
    assert r.numbers_equal and r.survivors_equal
    r = power_equivalence_check(cycle_graph(10), 2)
    assert r.gamma_direct == r.gamma_power == 2 and r.survivors_equal
    r = power_equivalence_check(cycle_graph(7), 1)  # G^1 = G, trivially equal
    assert r.numbers_equal and r.survivors_equal
    with pytest.raises(AttributeError):
        r.numbers_equal = False


def test_power_equivalence_random_graphs():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(8):
        g = random_connected_graph(rng.randint(3, 8), 0.25, rng)
        for k in (2, 3):
            r = power_equivalence_check(g, k)
            assert r.numbers_equal and r.survivors_equal


@settings(derandomize=True, max_examples=300, deadline=None)
@given(g=st.builds(random_connected_graph, n=st.integers(2, 8), extra=st.floats(0.0, 0.5),
                   rng=st.randoms(use_true_random=False)),
       k=st.integers(1, 3))
def test_power_equivalence_property(g, k):
    # Radius k on G and radius 1 on G^k give the same number and, at the
    # answer and one guard above it, the same survivor sets.
    power = graph_power(g, k)
    q = solve(g, k)
    assert solve(power, 1) == q
    for size in (q, q + 1):
        assert eternal_survivors(g, k, size) == eternal_survivors(power, 1, size)


def test_single_configuration_crosses_the_power_bridge():
    g = path_graph(6)
    power = graph_power(g, 2)
    assert is_eternal_set(g, 2, [1, 4]) == is_eternal_set(power, 1, [1, 4])


def test_bfs_spanning_tree_of_cycle_is_a_path():
    t = bfs_spanning_tree(cycle_graph(10), 0)
    assert is_tree(t)
    degrees = sorted(t.degree(v) for v in range(10))
    assert degrees == [1, 1] + [2] * 8


def test_spanning_tree_bound_examples():
    assert spanning_tree_upper_bound(cycle_graph(10), 2) == path_number(10, 2) == 4
    assert spanning_tree_upper_bound(path_graph(6), 2) == solve(path_graph(6), 2)
    assert spanning_tree_upper_bound(complete_graph(4), 2) == 1  # star tree, diameter 2


def test_spanning_tree_bound_is_valid_on_random_graphs():
    rng = random.Random(DEFAULT_SEED + 1)
    for _ in range(8):
        g = random_connected_graph(rng.randint(3, 8), 0.3, rng)
        assert solve(g, 2) <= spanning_tree_upper_bound(g, 2)


def test_decomposition_number_examples():
    _, cells = decomposition_bound(path_graph(5), 2)
    assert len(cells) == 1 and cells[0][0] == 2
    _, cells = decomposition_bound(path_graph(6), 2)
    assert len(cells) == 2  # no single root reaches all six vertices within two
    _, cells = decomposition_bound(path_graph(5), 1)
    assert len(cells) == 2


def _assert_partition(g, k, cells):
    covered = sorted(v for _, part in cells for v in part)
    assert covered == list(range(g.n))
    for root, part in cells:
        assert oracle_reaches_within(g, root, part, k)


def test_decomposition_parts_are_witnessed():
    g = random_connected_graph(9, 0.25, random.Random(DEFAULT_SEED + 2))
    _, cells = decomposition_bound(g, 2)
    _assert_partition(g, 2, cells)


def test_large_graphs_get_the_exact_count():
    # No size limit: P13 needs ceil(13 / 5) = 3 parts at radius 2.
    _, cells = decomposition_bound(path_graph(13), 2)
    assert len(cells) == 3
    _assert_partition(path_graph(13), 2, cells)
    binary = build_perfect_mary(2, 3)  # 15 vertices
    bound, cells = decomposition_bound(binary, 1)
    assert len(cells) == oracle_gamma(binary, 1) == 5
    _assert_partition(binary, 1, cells)
    assert bound == 10  # 2 * gamma_1 < gamma_0 = 15


@settings(derandomize=True, max_examples=200, deadline=None)
@given(g=st.builds(random_graph, n=st.integers(1, 8), extra=st.floats(0.0, 0.5),
                   rng=st.randoms(use_true_random=False), connected=st.booleans()),
       k=st.integers(0, 3))
def test_decomposition_number_matches_partition_oracle(g, k):
    if k == 0:  # no bound at radius 0, but the fewest parts are still gamma_0
        assert oracle_partition_number(g, k) == oracle_gamma(g, k)
        with pytest.raises(ValueError):
            decomposition_bound(g, k)
        return
    bound, cells = decomposition_bound(g, k)
    assert len(cells) == oracle_partition_number(g, k) == oracle_gamma(g, k)
    _assert_partition(g, k, cells)
    if is_connected(g):
        assert solve(g, k) <= bound


def test_decomposition_bound_examples():
    assert decomposition_bound(path_graph(5), 2)[0] == 2 == solve(path_graph(5), 2)
    wide = build_perfect_mary(3, 2)  # 13 vertices, radius 2 from the root
    assert decomposition_bound(wide, 2)[0] == 2
    assert solve(wide, 2) == 2
    # Diameter within half the radius: a single part at radius k//2.
    assert decomposition_bound(complete_graph(5), 4)[0] == 1


def test_decomposition_bound_is_valid_on_random_graphs():
    rng = random.Random(DEFAULT_SEED + 3)
    for _ in range(8):
        g = random_connected_graph(rng.randint(3, 9), 0.3, rng)
        assert solve(g, 2) <= decomposition_bound(g, 2)[0]


def test_sandwich_documented_by_reports():
    rng = random.Random(DEFAULT_SEED + 4)
    for _ in range(6):
        g = random_connected_graph(rng.randint(3, 8), 0.3, rng)
        report = eternal_number(g, 2)
        assert report.gamma_k_value <= report.gamma_eternal <= report.gamma_half_value


def test_wide_mary_tree_single_part_at_radius_two():
    wide = build_perfect_mary(3, 2)  # 13 vertices
    _, cells = decomposition_bound(wide, 2)
    assert len(cells) == 1 and cells[0][0] == 0
