"""Tree reductions: every applied rule is re-verified by the game engine."""
import random

import pytest

from ekdom.closed_forms import path_graph, spider_graph, star_graph
from ekdom.graph import Graph, is_tree
from ekdom.mary import build_perfect_mary, mary_number_recursive
from ekdom.reductions import (apply_doublebranch_trim, apply_endpath_reduction,
                              apply_halfbranch_trim, apply_kpath_reduction,
                              k2_reduce, k2_sets, reduce_tree)
from ekdom.solver import eternal_number

from helpers import (DEFAULT_SEED, apply_leaf_cluster_trim, apply_pendant_pair_trim,
                     eternal_one_tree, random_tree)


def solve(g, k):
    return eternal_number(g, k).gamma_eternal


def double_spider(legs=3):
    """Two spiders with `legs` legs of length two, centers joined by a
    two-edge path."""
    base = spider_graph([2] * legs)
    shift = base.n
    edges = list(base.edges())
    edges += [(u + shift, v + shift) for u, v in base.edges()]
    bridge = 2 * shift
    edges += [(0, bridge), (bridge, shift)]
    return Graph.build(2 * shift + 1, edges)


def test_endpath_on_p6():
    t2, step = apply_endpath_reduction(path_graph(6), 2)
    assert step.removed == ("0", "1", "2") and t2.n == 3
    assert (step.delta_low, step.delta_high) == (1, 1)
    assert solve(path_graph(6), 2) == solve(t2, 2) + 1 == 2


def test_endpath_absent_on_short_paths():
    assert apply_endpath_reduction(path_graph(3), 2) is None


def test_endpath_on_long_spider_leg():
    t = spider_graph([3, 1, 1])
    t2, step = apply_endpath_reduction(t, 2)
    assert solve(t, 2) == solve(t2, 2) + 1


def test_endpath_interval_widening_at_k3():
    # A height-3 leg on a shallow spider: deleting it does NOT drop the
    # number (the pinned guard parks one step from the hub and covers the
    # whole remainder), which is why the recorded delta is [0, 1] there.
    t = Graph.build(9, [(0, 1), (0, 6), (1, 4), (1, 7), (2, 5), (2, 6),
                        (3, 7), (4, 8)])
    t2, step = apply_endpath_reduction(t, 3)
    assert (step.delta_low, step.delta_high) == (0, 1)
    assert solve(t, 3) == solve(t2, 3)  # the degenerate case is real


def test_kpath_on_double_spider():
    t = double_spider()
    res = apply_kpath_reduction(t, 2)
    assert res is not None
    t2, step = res
    assert dict(step.anchors)["x"] == "0"
    assert solve(t, 2) == solve(t2, 2) + 1


def test_kpath_absent_on_bare_paths():
    assert apply_kpath_reduction(path_graph(7), 2) is None


def test_kpath_telescopes_mary_trees():
    # Depth-4 binary tree: combined trims reach a trivial core and the
    # accumulated exact delta reproduces the formula value.
    t = build_perfect_mary(2, 4)
    trace = reduce_tree(t, 2)
    assert trace.lower_bound == trace.upper_bound == mary_number_recursive(2, 4, 2) == 6
    assert any(s.kind == "kpath" for s in trace.steps)


def test_halfbranch_on_star():
    t2, step = apply_halfbranch_trim(star_graph(3), 2)
    assert t2.n == 2 and (step.delta_low, step.delta_high) == (0, 0)
    assert solve(star_graph(3), 2) == solve(t2, 2) == 1


def test_halfbranch_keeps_one_thread():
    # Two pendant leaves plus a long tail at the same vertex: one leaf
    # survives as the kept thread.
    t = Graph.build(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    res = apply_halfbranch_trim(t, 2)
    assert res is not None
    t2, step = res
    assert t2.n == 4
    assert solve(t, 2) == solve(t2, 2)


def test_halfbranch_needs_an_exact_depth_leaf():
    assert apply_halfbranch_trim(path_graph(2), 2) is None


def test_doublebranch_on_four_leg_spider():
    t = spider_graph([2, 2, 2, 2])
    t2, step = apply_doublebranch_trim(t, 2)
    assert t2.n == 5  # two kept legs form a five-vertex path
    assert solve(t, 2) == solve(t2, 2) == 2


def test_doublebranch_needs_two_deep_branches():
    t = spider_graph([2, 1, 1])
    assert apply_doublebranch_trim(t, 2) is None


def test_k2_sets_on_spider():
    t = spider_graph([2, 2, 2])
    sets = k2_sets(t, 0)
    assert sets.leaves_at_two == frozenset({2, 4, 6})
    assert sets.stems == frozenset({1, 3, 5})
    assert 0 in sets.two_ring
    assert sets.multi_linked | sets.single_linked == sets.stems


def test_k2_sets_on_p5():
    sets = k2_sets(path_graph(5), 2)
    assert sets.leaves_at_two == frozenset({0, 4})
    assert sets.stems == frozenset({1, 3})


def test_trace_records_are_immutable():
    trace = reduce_tree(path_graph(9), 2)
    records = [(trace, "lower_bound"), (trace.steps[0], "delta_low"),
               (k2_sets(path_graph(5), 2), "stems")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_k2_sets_rejects_leaves():
    with pytest.raises(ValueError):
        k2_sets(path_graph(5), 0)
    with pytest.raises(ValueError):
        k2_sets(path_graph(3), 1)  # no leaf at distance exactly two


def test_k2_reduce_both_outcomes_occur():
    t7, _ = k2_reduce(path_graph(7), 2)
    assert solve(path_graph(7), 2) - solve(t7, 2) == 1
    t9, _ = k2_reduce(path_graph(9), 2)
    assert solve(path_graph(9), 2) - solve(t9, 2) == 0


def test_k2_reduce_spider_collapses_to_center():
    t = spider_graph([2, 2, 2])
    t2, step = k2_reduce(t, 0)
    assert t2.n == 1
    assert solve(t, 2) == 2 and solve(t2, 2) == 1  # the +1 outcome


def test_k2_reduce_refuses_disconnecting_sites():
    # The stem at 2 carries a deeper subtree; deleting it would strand it.
    t = Graph.build(10, [(0, 2), (0, 7), (0, 9), (1, 2), (1, 8), (2, 3),
                         (2, 5), (2, 6), (3, 4)])
    with pytest.raises(ValueError, match="disconnects"):
        k2_reduce(t, 0)


def test_reduce_tree_examples():
    trace = reduce_tree(path_graph(9), 2)
    assert trace.lower_bound == trace.upper_bound == 3
    assert is_tree(trace.core)

    single = reduce_tree(Graph.build(1, []), 2)
    assert single.steps == [] and single.core.n == 1

    doc = trace.to_json()
    assert doc["bounds"] == [3, 3]
    assert all(set(step) == {"kind", "removed", "anchors", "delta"}
               for step in doc["steps"])


def test_reduce_tree_bounds_contain_truth_on_random_trees():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(30):
        t = random_tree(rng.randint(1, 11), rng)
        for k in (1, 2, 3):
            trace = reduce_tree(t, k)
            truth = solve(t, k)
            assert trace.lower_bound <= truth <= trace.upper_bound, (k, list(t.edges()))
            assert is_tree(trace.core)


def test_every_applied_rule_verified_by_engine_on_random_trees():
    rng = random.Random(DEFAULT_SEED + 1)
    rules = [(apply_endpath_reduction, "endpath"),
             (apply_kpath_reduction, "kpath"),
             (apply_halfbranch_trim, "halfbranch"),
             (apply_doublebranch_trim, "doublebranch")]
    seen = set()
    for _ in range(40):
        t = random_tree(rng.randint(2, 10), rng)
        for k in (2, 3):
            for fn, name in rules:
                res = fn(t, k)
                if res is None:
                    continue
                t2, step = res
                seen.add((name, k))
                delta = solve(t, k) - solve(t2, k)
                assert step.delta_low <= delta <= step.delta_high, (name, k)
    assert ("endpath", 2) in seen and ("halfbranch", 2) in seen


def test_k1_rules_match_engine():
    rng = random.Random(DEFAULT_SEED + 2)
    hits = 0
    for _ in range(25):
        t = random_tree(rng.randint(3, 9), rng)
        for fn in (apply_leaf_cluster_trim, apply_pendant_pair_trim):
            t2 = fn(t)
            if t2 is None:
                continue
            hits += 1
            assert solve(t, 1) == solve(t2, 1) + 1
    assert hits > 10


def test_eternal_one_tree_base_cases():
    assert eternal_one_tree(Graph.build(1, [])) == 1
    assert eternal_one_tree(path_graph(2)) == 1
    assert eternal_one_tree(star_graph(5)) == 2
    assert eternal_one_tree(path_graph(5)) == 3


def test_rules_verified_on_every_tree_through_eight_vertices():
    # Exhaustive over all non-isomorphic trees with up to 8 vertices: any
    # unsound rule application at desk scale would surface here, not just
    # with a lucky seed.
    from helpers import all_trees_exactly
    rules = (apply_endpath_reduction, apply_kpath_reduction,
             apply_halfbranch_trim, apply_doublebranch_trim)
    applications = 0
    for n in range(2, 9):
        for t in all_trees_exactly(n):
            for k in (2, 3):
                base = solve(t, k)
                for fn in rules:
                    res = fn(t, k)
                    if res is None:
                        continue
                    applications += 1
                    t2, step = res
                    assert is_tree(t2)
                    delta = base - solve(t2, k)
                    assert step.delta_low <= delta <= step.delta_high, \
                        (fn.__name__, k, list(t.edges()))
                if k != 2:
                    continue
                for x in range(t.n):
                    try:
                        reduced, step = k2_reduce(t, x)
                    except ValueError:
                        continue
                    applications += 1
                    assert base - solve(reduced, 2) in (0, 1), (x, list(t.edges()))
                    break
    assert applications > 100
