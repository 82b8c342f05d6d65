"""Graph core: parsing, distances, powers, structural queries."""
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekdom.bounds import bfs_spanning_tree, power_equivalence_check, spanning_tree_upper_bound
from ekdom.cli import _cmd_bounds, _parse
from ekdom.graph import (DisconnectedGraphError, Graph, ParseError, UNREACHABLE,
                         all_pairs_distances, components, delete_vertices, diameter,
                         eccentricity, format_dot, format_edge_list,
                         graph_power, is_connected, is_tree, parse_graph)
from ekdom.closed_forms import cycle_graph, path_graph, star_graph
from ekdom.solver import eternal_survivors, solve_order

from helpers import (DEFAULT_SEED, delete_edge, neighborhood_k, oracle_distances,
                     random_connected_graph, random_graph, reference_bfs_row,
                     reference_bfs_spanning_tree, reference_solve_order)


def test_parse_edge_list_path():
    g = parse_graph("0 1\n1 2")
    assert g.n == 3 and g.num_edges == 2
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_triangle_by_labels():
    g = parse_graph("a b\nb c\nc a")
    assert g.n == 3 and g.num_edges == 3
    assert g.labels == ("a", "b", "c")
    assert g.id_of("c") == 2


def test_build_rejects_repeated_labels():
    with pytest.raises(ValueError, match="'a' is repeated"):
        Graph.build(3, [(0, 1), (1, 2)], ["a", "a", "b"])
    assert Graph.build(3, [(0, 1), (1, 2)], ["a", "b", "c"]).id_of("b") == 1


def test_parse_dot_subset_equivalent_to_edge_list():
    g1 = parse_graph("0 1\n1 2")
    g2 = parse_graph("graph { 0 -- 1; 1 -- 2; }")
    assert g1.adj == g2.adj and g1.labels == g2.labels


def test_parse_dot_chain_name_and_isolated():
    g = parse_graph("graph g {\n a -- b -- c\n d;\n}")
    assert g.n == 4 and g.num_edges == 2
    assert g.degree(g.id_of("d")) == 0


def test_parse_isolated_vertices_and_comments():
    g = parse_graph("# demo\nv lonely\na b  # trailing\n\n")
    assert g.n == 3
    assert g.degree(g.id_of("lonely")) == 0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("0 1\n0 1 2")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_graph("a b\nc c")
    assert "self-loop" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("graph g a -- b }", "line 1: expected '{', got 'a'"),
    ("graph { -- b }", "line 1: unexpected '--'"),
    ("graph { a -- b } c", "line 1: trailing input 'c'"),
    ("graph g " + "x" * 5000, "line 1: expected '{', got '" + "x" * 40 + "'..."),
    ("graph { a -- b } " + "c" * 5000, "line 1: trailing input '" + "c" * 40 + "'..."),
])
def test_dot_errors_quote_at_most_a_few_dozen_characters(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_duplicate_edge_warns_and_dedupes():
    with pytest.warns(UserWarning, match="duplicate"):
        g = parse_graph("a b\nb a")
    assert g.num_edges == 1


def _label_edges(g):
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}


def test_format_round_trip():
    g = parse_graph("a b\nb c\nv z")
    for text in (format_edge_list(g), format_dot(g)):
        again = parse_graph(text)
        assert set(again.labels) == set(g.labels)
        assert _label_edges(again) == _label_edges(g)


def test_distances_match_textbook_bfs():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 9), 0.25, rng)
        dist = all_pairs_distances(g)
        oracle = oracle_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dist[u][v] == (oracle[u][v] if oracle[u][v] is not None
                                      else UNREACHABLE)


def _searched_graph(n, shape, extra, rng):
    """A connected graph, two components, or a connected graph with
    isolated vertices, on n vertices numbered in a random order."""
    if n == 0:
        return Graph.build(0, [])
    core = rng.randint(1, n) if shape == "isolated" else n
    g = random_graph(core, extra, rng, connected=shape != "two")
    ids = list(range(n))
    rng.shuffle(ids)
    return Graph.build(n, [(ids[u], ids[v]) for u, v in g.edges()])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(n=st.integers(0, 12), shape=st.sampled_from(["connected", "two", "isolated"]),
       extra=st.floats(0.0, 0.5), rng=st.randoms(use_true_random=False))
def test_one_search_matches_the_three_it_replaced(n, shape, extra, rng):
    g = _searched_graph(n, shape, extra, rng)
    dist = tuple(reference_bfs_row(g, s) for s in range(g.n))
    assert all_pairs_distances(g) == dist
    connected = g.n <= 1 or UNREACHABLE not in dist[0]
    assert is_connected(g) == connected
    assert components(g) == sorted({tuple(v for v in range(g.n) if row[v] != UNREACHABLE)
                                    for row in dist})
    if connected:
        assert solve_order(g) == reference_solve_order(g)
        assert all(bfs_spanning_tree(g, r) == reference_bfs_spanning_tree(g, r)
                   for r in range(g.n))
        return
    with pytest.raises(ValueError) as ref:
        reference_solve_order(g)
    with pytest.raises(DisconnectedGraphError, match=f"^{re.escape(str(ref.value))}$"):
        solve_order(g)
    for r in range(g.n):
        with pytest.raises(ValueError) as ref:
            reference_bfs_spanning_tree(g, r)
        with pytest.raises(DisconnectedGraphError, match=f"^{re.escape(str(ref.value))}$"):
            bfs_spanning_tree(g, r)


def _bounds_command(g, tmp_path):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text(format_edge_list(g))
    return _cmd_bounds(_parse(["bounds", "-k", "1", str(graph_file)]))


@pytest.mark.parametrize("refuse,message", [
    (lambda g, _: solve_order(g), "the solve order covers connected graphs only"),
    (lambda g, _: bfs_spanning_tree(g, 0), "graph is disconnected"),
    (lambda g, _: spanning_tree_upper_bound(g, 1), "spanning trees need a connected graph"),
    (lambda g, _: eternal_survivors(g, 1, 2), "survivor sets are defined per connected graph"),
    (lambda g, _: power_equivalence_check(g, 1),
     "survivor sets are defined per connected graph"),
    (lambda g, _: eccentricity(all_pairs_distances(g), 0),
     "eccentricity is undefined on a disconnected graph"),
    (_bounds_command, "bounds need a connected graph"),
], ids=["solve_order", "bfs_spanning_tree", "spanning_tree_upper_bound",
        "eternal_survivors", "power_equivalence_check", "eccentricity", "ekdom bounds"])
def test_connected_only_entry_points_refuse_with_one_error(refuse, message, tmp_path):
    g = Graph.build(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(DisconnectedGraphError, match=f"^{re.escape(message)}$"):
        refuse(g, tmp_path)


def test_distance_examples():
    p5 = path_graph(5)
    assert all_pairs_distances(p5)[0][4] == 4
    c10 = cycle_graph(10)
    assert all_pairs_distances(c10)[0][5] == 5
    two = Graph.build(4, [(0, 1), (2, 3)])
    assert all_pairs_distances(two)[0][2] == UNREACHABLE


def test_neighborhoods():
    p5 = path_graph(5)
    d = all_pairs_distances(p5)
    assert neighborhood_k(d, 2, 2) == frozenset(range(5))
    assert neighborhood_k(d, 0, 2, closed=False) == frozenset({2})
    star = star_graph(3)
    ds = all_pairs_distances(star)
    assert neighborhood_k(ds, 0, 1) == frozenset(range(4))


def test_eccentricity_diameter_and_tree_checks():
    p5 = path_graph(5)
    d = all_pairs_distances(p5)
    assert eccentricity(d, 0) == 4 and diameter(d) == 4
    assert diameter(all_pairs_distances(cycle_graph(6))) == 3
    assert not is_tree(cycle_graph(3))
    assert is_tree(path_graph(3))
    two = Graph.build(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        diameter(all_pairs_distances(two))


def test_graph_power_examples():
    p4 = path_graph(4)
    sq = graph_power(p4, 2)
    assert set(sq.edges()) == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}
    g = random_connected_graph(7, 0.3, random.Random(1))
    assert graph_power(g, 1).adj == g.adj


def test_c5_squared_is_complete_by_brute_distances():
    c5 = cycle_graph(5)
    oracle = oracle_distances(c5)
    assert all(oracle[u][v] <= 2 for u in range(5) for v in range(5))
    sq = graph_power(c5, 2)
    assert sq.num_edges == 10  # K_5


def test_power_monotone_and_complete_past_diameter():
    rng = random.Random(DEFAULT_SEED + 1)
    for _ in range(10):
        g = random_connected_graph(rng.randint(3, 8), 0.2, rng)
        dia = diameter(all_pairs_distances(g))
        prev = set(g.edges())
        for k in range(2, dia + 2):
            cur = set(graph_power(g, k).edges())
            assert prev <= cur
            prev = cur
        assert graph_power(g, dia).num_edges == g.n * (g.n - 1) // 2


def test_delete_vertices_relabels_densely():
    p5 = path_graph(5)
    smaller, idmap = delete_vertices(p5, [0, 2])
    assert smaller.n == 3
    assert idmap == {1: 0, 3: 1, 4: 2}
    assert smaller.labels == ("1", "3", "4")
    assert list(smaller.edges()) == [(1, 2)]


def test_delete_edge_never_shrinks_distances():
    rng = random.Random(DEFAULT_SEED + 2)
    for _ in range(10):
        g = random_connected_graph(rng.randint(3, 8), 0.3, rng)
        before = all_pairs_distances(g)
        for u, v in list(g.edges()):
            after = all_pairs_distances(delete_edge(g, u, v))
            assert all(after[a][b] >= before[a][b]
                       for a in range(g.n) for b in range(g.n))


def test_dot_duplicate_edge_warns_and_trailing_garbage_errors():
    with pytest.warns(UserWarning, match="duplicate"):
        g = parse_graph("graph { a -- b; b -- a; }")
    assert g.num_edges == 1
    with pytest.raises(ParseError):
        parse_graph("graph { a -- b } c")
    with pytest.raises(ParseError):
        parse_graph("graph { a -- ; }")


def test_unknown_label_raises_value_error():
    g = parse_graph("a b")
    with pytest.raises(ValueError, match="unknown vertex label"):
        g.id_of("zzz")


def test_power_and_neighborhood_argument_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        graph_power(g, 0)
    with pytest.raises(ValueError):
        neighborhood_k(all_pairs_distances(g), 0, -1)
