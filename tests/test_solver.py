"""The game engine against naive fixed points, formulas and mutations."""
import inspect
import json
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekdom.closed_forms import (cycle_graph, cycle_number, path_graph,
                                path_number, star_graph)
from ekdom.configs import enumerate_dominating_configs
from ekdom.domination import gamma_k
import ekdom._kernel
from ekdom import graph
from ekdom.graph import (CACHE_SIZE, Graph, all_pairs_distances, components, diameter,
                         format_edge_list, induced_subgraph, is_connected, parse_graph)
from ekdom.mary import build_perfect_mary, mary_number_recursive
from ekdom.solver import (BudgetExceededError, _certificate_in, _relabelled,
                          certificate_from_json, certificate_to_json, eternal_number,
                          eternal_survivors, is_eternal_set, solve_order,
                          verify_certificate)

from helpers import (DEFAULT_SEED, all_trees_exactly, delete_edge, eternal_one_tree,
                     least_survivor_certificate, oracle_distances, random_connected_graph,
                     random_tree, reference_certificate, reverse_sweep_survivors, transforms)


def naive_survivors(g, k, q):
    """Reference fixed point: no indexing, no witnesses, and attacks on
    every vertex including occupied ones."""
    d = all_pairs_distances(g)
    states = set(enumerate_dominating_configs(d, k, q))
    changed = True
    while changed:
        changed = False
        for cfg in sorted(states):
            ok = all(any(v in set(nxt) and transforms(d, cfg, nxt, k)
                         for nxt in states)
                     for v in range(g.n))
            if not ok:
                states.discard(cfg)
                changed = True
    return frozenset(states)


def test_single_guard_on_p5_fails_two_succeed():
    p5 = path_graph(5)
    assert not is_eternal_set(p5, 2, [2])
    assert is_eternal_set(p5, 2, [1, 3])
    assert eternal_number(p5, 2).gamma_eternal == 2


def test_small_paths_and_cycles_match_formulas():
    for n in range(1, 11):
        for k in (1, 2, 3):
            assert eternal_number(path_graph(n), k).gamma_eternal == path_number(n, k)
    for n in range(3, 12):
        for k in (1, 2, 3):
            got = eternal_number(cycle_graph(n), k).gamma_eternal
            assert got == cycle_number(n, k) == gamma_k(cycle_graph(n), k).gamma


def test_star_needs_one_guard_at_k2():
    assert eternal_number(star_graph(4), 2).gamma_eternal == 1


def test_diameter_at_most_k_means_any_single_guard_survives():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(10):
        g = random_connected_graph(rng.randint(2, 7), 0.4, rng)
        k = diameter(all_pairs_distances(g))
        if k < 1:
            continue
        for v in range(g.n):
            assert is_eternal_set(g, k, [v])


def test_engine_matches_naive_fixed_point():
    rng = random.Random(DEFAULT_SEED + 1)
    for _ in range(12):
        g = random_connected_graph(rng.randint(2, 6), 0.3, rng)
        for k in (1, 2):
            for q in (1, 2):
                assert eternal_survivors(g, k, q) == naive_survivors(g, k, q)


def test_sandwich_on_random_graphs():
    rng = random.Random(DEFAULT_SEED + 2)
    for _ in range(10):
        g = random_connected_graph(rng.randint(2, 8), 0.3, rng)
        for k in (2, 3):
            report = eternal_number(g, k)
            assert report.gamma_k_value <= report.gamma_eternal <= report.gamma_half_value


def test_edge_removal_never_decreases_the_number():
    rng = random.Random(DEFAULT_SEED + 3)
    for _ in range(6):
        g = random_connected_graph(rng.randint(3, 7), 0.35, rng)
        base = eternal_number(g, 2).gamma_eternal
        for u, v in g.edges():
            smaller = delete_edge(g, u, v)
            if not is_connected(smaller):
                continue
            assert eternal_number(smaller, 2).gamma_eternal >= base


def test_k1_agrees_with_classical_tree_trimming():
    # Exhaustive through 8 vertices, sampled at 9.
    for n in range(1, 9):
        for tree in all_trees_exactly(n):
            assert eternal_number(tree, 1).gamma_eternal == eternal_one_tree(tree)
    rng = random.Random(DEFAULT_SEED + 4)
    for _ in range(25):
        tree = random_tree(9, rng)
        assert eternal_number(tree, 1).gamma_eternal == eternal_one_tree(tree)


def test_elimination_order_does_not_change_the_fixed_point():
    rng = random.Random(DEFAULT_SEED + 5)
    for _ in range(8):
        g = random_connected_graph(rng.randint(3, 7), 0.3, rng)
        q = eternal_number(g, 2).gamma_eternal
        assert eternal_survivors(g, 2, q) == reverse_sweep_survivors(g, 2, q)


def test_certificate_round_trip_and_mutations():
    p5 = path_graph(5)
    report = eternal_number(p5, 2)
    cert = report.certificate
    assert verify_certificate(p5, cert)[0]

    doc = certificate_to_json(cert, p5)
    again = certificate_from_json(doc, p5)
    assert verify_certificate(p5, again)[0]

    # Drop a family member and its rows: responses point past the end.
    broken = certificate_from_json(doc, p5)
    broken = broken._replace(family=broken.family[:-1], rows=broken.rows[:-p5.n])
    ok, violation = verify_certificate(p5, broken)
    assert not ok

    # Stretch a move beyond k: the first guard walks to its successor's
    # farthest post.
    dist = all_pairs_distances(p5)
    r, row = next((r, row) for r, row in enumerate(cert.rows)
                  if max(dist[cert.family[r // 5][0]][u] for u in cert.family[row[0]]) > 2)
    src, succ = cert.family[r // 5][0], cert.family[row[0]]
    far = max(range(len(succ)), key=lambda t: dist[src][succ[t]])
    broken = certificate_from_json(doc, p5)
    broken = broken._replace(rows=broken.rows[:r] + [[row[0], far, *row[2:]]]
                             + broken.rows[r + 1:])
    ok, violation = verify_certificate(p5, broken)
    assert not ok and "longer than k" in violation.reason

    # Point a response outside the family.
    broken = certificate_from_json(doc, p5)
    broken = broken._replace(rows=[[len(broken.family) + 3, *broken.rows[0][1:]]]
                             + broken.rows[1:])
    ok, violation = verify_certificate(p5, broken)
    assert not ok and "outside a family of 4" in violation.reason


def test_certificate_responses_cover_every_vertex():
    c6 = cycle_graph(6)
    report = eternal_number(c6, 1)
    cert = report.certificate
    assert len(cert.rows) == 6 * len(cert.family)
    assert verify_certificate(c6, cert)[0]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(n=st.integers(2, 9), extra=st.floats(0.0, 0.5), rng=st.randoms(use_true_random=False),
       k=st.integers(1, 3))
def test_certificate_matches_the_survivor_scan(n, extra, rng, k):
    # The witness-table closure equals the closure that matches every
    # survivor, and the independent verifier accepts it.
    g = random_connected_graph(n, extra, rng)
    report = eternal_number(g, k)
    q = report.gamma_eternal
    # The solve closes the family in solve order, then maps it back.
    order, h = _relabelled(g)
    expected = _certificate_in(order, reference_certificate(h, k, q, eternal_survivors(h, k, q)))
    cert = report.certificate
    assert (cert.k, cert.q, cert.family) == (expected.k, expected.q, expected.family)
    assert cert.rows == expected.rows
    assert verify_certificate(g, cert) == (True, None)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(2, 9), extra=st.floats(0.0, 0.5), rng=st.randoms(use_true_random=False),
       k=st.integers(1, 3))
def test_certificate_family_is_within_the_least_survivor_closure(n, extra, rng, k):
    # Responses drawn from the family reach new members along least-survivor
    # edges only, so the family never outgrows the least-survivor closure.
    g = random_connected_graph(n, extra, rng)
    report = eternal_number(g, k)
    q = report.gamma_eternal
    order, h = _relabelled(g)
    least = _certificate_in(order, least_survivor_certificate(h, k, q, eternal_survivors(h, k, q)))
    assert set(report.certificate.family) <= set(least.family)
    assert verify_certificate(g, report.certificate) == (True, None)


def relisted(doc, rng):
    """The same certificate document with ``vertices`` shuffled and every
    member's posts listed in reverse, its rows rewritten to match."""
    n, q, rows = len(doc["vertices"]), doc["q"], doc["response"]
    order = list(range(n))
    rng.shuffle(order)
    out = []
    for i in range(len(doc["family"])):
        for a in order:
            j, *targets = rows[i * n + a]
            out.append([j] + [q - 1 - t for t in reversed(targets)])
    return dict(doc, vertices=[doc["vertices"][a] for a in order],
                family=[member[::-1] for member in doc["family"]], response=out)


def moves(cert):
    """Per row: the successor and the guards' (source, target) pairs as a
    multiset, which fixes a row up to the order of guards on one post."""
    n = len(cert.rows) // len(cert.family)
    return [(row[0], sorted(zip(cert.family[r // n], map(cert.family[row[0]].__getitem__,
                                                          row[1:]))))
            for r, row in enumerate(cert.rows)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(2, 9), extra=st.floats(0.0, 0.5), rng=st.randoms(use_true_random=False),
       k=st.integers(1, 3))
def test_certificate_json_round_trip(n, extra, rng, k):
    # Shuffled labels keep the label order apart from the id order.
    plain = random_connected_graph(n, extra, rng)
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    g = Graph.build(n, plain.edges(), names)
    cert = eternal_number(g, k).certificate
    doc = json.loads(json.dumps(certificate_to_json(cert, g)))
    again = certificate_from_json(doc, g)
    assert (again.k, again.q, again.family) == (cert.k, cert.q, cert.family)
    assert again.rows == cert.rows
    assert verify_certificate(g, again) == (True, None)

    # The reader follows the document's attack order and post listings and
    # normalises them: guards came in reverse, so guards on one post may
    # swap targets, and the moves are otherwise the same.
    shuffled = certificate_from_json(relisted(doc, rng), g)
    assert shuffled.family == cert.family
    assert moves(shuffled) == moves(cert)
    assert verify_certificate(g, shuffled) == (True, None)


def permuted(g, perm):
    """g with vertex u renumbered ``perm[u]``, each label on its vertex."""
    labels = [None] * g.n
    for u, label in enumerate(g.labels):
        labels[perm[u]] = label
    return Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()], labels)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(2, 9), extra=st.floats(0.0, 0.5), rng=st.randoms(use_true_random=False),
       k=st.integers(1, 3))
def test_solves_agree_under_relabelling(n, extra, rng, k):
    # Every solve runs in solve order and maps back, so the isomorphism
    # invariants agree on any two labelings, and each labeling's survivor
    # set and certificate are in its own ids.
    g = random_connected_graph(n, extra, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    h = permuted(g, perm)
    a, b = eternal_number(g, k), eternal_number(h, k)
    assert (a.gamma_eternal, a.lower_bound, a.upper_bound, a.gamma_k_value,
            a.gamma_half_value) == (b.gamma_eternal, b.lower_bound, b.upper_bound,
                                    b.gamma_k_value, b.gamma_half_value)
    assert ([(s.q, s.num_configs, s.survivors, s.exceeded) for s in a.per_q]
            == [(s.q, s.num_configs, s.survivors, s.exceeded) for s in b.per_q])
    q = a.gamma_eternal
    assert eternal_survivors(h, k, q) == {tuple(sorted(perm[u] for u in cfg))
                                          for cfg in eternal_survivors(g, k, q)}
    assert verify_certificate(g, a.certificate) == (True, None)
    assert verify_certificate(h, b.certificate) == (True, None)


def test_solve_order_is_breadth_first_from_vertex_0():
    # What `ekdom gen` writes for paths and m-ary trees is read back in
    # solve order, so those inputs are solved exactly as given.
    for g in (path_graph(14), build_perfect_mary(2, 3), build_perfect_mary(4, 3)):
        read = parse_graph(format_edge_list(g))
        assert solve_order(read) == list(range(g.n))
        assert _relabelled(read)[1] is read
    rng = random.Random(DEFAULT_SEED)
    for _ in range(50):
        g = random_connected_graph(rng.randint(1, 12), 0.5, rng)
        order, h = _relabelled(g)
        assert sorted(order) == list(range(g.n))
        depth = [all_pairs_distances(g)[0][u] for u in order]
        assert depth == sorted(depth)
        assert solve_order(h) == list(range(g.n))  # its own output is in order
        assert [g.labels[u] for u in order] == list(h.labels)
        # h's distances are g's permuted, not searched again.
        assert list(map(list, all_pairs_distances(h))) == oracle_distances(h)
    with pytest.raises(ValueError, match="connected"):
        solve_order(Graph.build(3, [(0, 1)]))


def test_disconnected_graphs_sum_components():
    g = Graph.build(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])
    report = eternal_number(g, 2)
    expected = (eternal_number(path_graph(3), 2).gamma_eternal
                + eternal_number(path_graph(5), 2).gamma_eternal)
    assert report.gamma_eternal == expected
    # Each component report certifies its own induced subgraph; the sum
    # has no certificate.
    assert report.certificate is None
    subs = [induced_subgraph(g, comp)[0] for comp in components(g)]
    assert len(report.component_reports) == len(subs) == 2
    for sub, part in zip(subs, report.component_reports):
        assert part.certificate is not None
        assert verify_certificate(sub, part.certificate) == (True, None)
    assert not is_eternal_set(g, 2, [1, 4])      # second component underguarded
    assert is_eternal_set(g, 2, [1, 4, 6])


def test_disconnected_solves_build_no_whole_graph_distances():
    # P8 + P6: connectivity and components come from one search per
    # component, so only the components' distances are built.  Labels no
    # other test uses keep the graph's memo this test's own.
    edges = [(i, i + 1) for i in range(7)] + [(i, i + 1) for i in range(8, 13)]
    g = Graph.build(14, edges, [f"p8+p6:{i}" for i in range(14)])
    assert eternal_number(g, 1).gamma_eternal == 7
    assert "distances" not in graph._derived(g)


@pytest.mark.parametrize("guards,eternal", [
    ([1, 3, 5, 7, 9, 11, 13], True),
    ([1, 3, 5, 7, 8, 10, 12], True),
    ([1, 3, 5, 7, 9, 11], False),  # vertex 13 uncovered
    ([0, 1, 2, 3, 4, 5, 6, 7], False),  # P6 unguarded
])
def test_disconnected_membership_builds_no_whole_graph_distances(guards, eternal):
    # P8 + P6: the cover is tested on each component's own balls, so the
    # whole graph's memo gets neither distances nor balls.
    edges = [(i, i + 1) for i in range(7)] + [(i, i + 1) for i in range(8, 13)]
    g = Graph.build(14, edges, [f"member{guards}:{i}" for i in range(14)])
    assert is_eternal_set(g, 1, guards) is eternal
    assert "distances" not in graph._derived(g) and ("balls", 1) not in graph._derived(g)


def test_repeated_queries_reuse_one_solve(monkeypatch):
    # Survivors and membership at the answer come from the solve that
    # found it, and no witness table outlives the solve that filled it.
    tables = []  # a weak reference to each call's wit
    run = ekdom._kernel.run_elimination

    def spy(*args, **kwargs):
        bound = inspect.signature(run).bind(*args, **kwargs)
        tables.append(weakref.ref(bound.arguments["wit"]))
        return run(*args, **kwargs)

    monkeypatch.setattr(ekdom._kernel, "run_elimination", spy)
    # Labels no other graph uses, so no earlier solve is in the cache.
    g = Graph.build(7, path_graph(7).edges(), [f"reuse{i}" for i in range(7)])
    report = eternal_number(g, 2)
    q, member = report.gamma_eternal, report.certificate.family[0]
    solved = len(tables)
    assert solved and q == path_number(7, 2)
    assert member in eternal_survivors(g, 2, q)
    assert is_eternal_set(g, 2, member)
    assert len(tables) == solved
    assert all(table() is None for table in tables)


def test_memory_stays_flat_over_many_distinct_solves():
    # Every per-graph cache keeps at most CACHE_SIZE entries, so once the
    # caches are full, further solves on new graphs retain nothing more.
    # Unbounded caches retained about 1.9 MB over the measured 256 solves;
    # the interpreter's free lists and dict resizing move the bounded total
    # by a few hundred KB either way.
    def solve(i):
        g = Graph.build(6, path_graph(6).edges(), [f"flat{i}.{v}" for v in range(6)])
        report = eternal_number(g, 1)
        assert report.gamma_eternal == path_number(6, 1)
        assert g.id_of(f"flat{i}.0") == 0

    tracemalloc.start()
    try:
        for i in range(2 * CACHE_SIZE):
            solve(i)
        before = tracemalloc.get_traced_memory()[0]
        for i in range(2 * CACHE_SIZE, 6 * CACHE_SIZE):
            solve(i)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 1 << 20


def test_a_graphs_results_stay_cached_together(monkeypatch):
    # A graph's solves are evicted with its distances, not on a clock of
    # their own, so while A is among the CACHE_SIZE graphs used last, no
    # number of solves on other graphs makes A solve again.
    solves = []
    run = ekdom._kernel.run_elimination

    def spy(*args, **kwargs):
        solves.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(ekdom._kernel, "run_elimination", spy)
    a = Graph.build(7, path_graph(7).edges(), [f"together{v}" for v in range(7)])
    q = eternal_number(a, 2).gamma_eternal
    solves.clear()
    for i in range(40):
        g = Graph.build(8, path_graph(8).edges(), [f"others{i}.{v}" for v in range(8)])
        assert eternal_number(g, 1).gamma_eternal == path_number(8, 1)
    assert len(solves) > CACHE_SIZE
    solves.clear()
    assert eternal_survivors(a, 2, q)
    assert not solves


def test_memory_stays_flat_over_many_budgets_on_one_graph():
    # Each graph keeps at most CACHE_SIZE results, counted after a solve
    # has stored the distances and balls it made on the way.
    g = Graph.build(7, path_graph(7).edges(), [f"budgets{v}" for v in range(7)])
    q = path_number(7, 2)
    tracemalloc.start()
    try:
        for budget in range(10**6, 10**6 + 2 * CACHE_SIZE):
            assert eternal_survivors(g, 2, q, budget)
        before = tracemalloc.get_traced_memory()[0]
        for budget in range(10**6 + 2 * CACHE_SIZE, 10**6 + 1024):
            assert eternal_survivors(g, 2, q, budget)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 1 << 20


def test_disconnected_graphs_honour_the_q_range():
    # P5 + P3 at k = 1: 3 + 2 guards.
    g = Graph.build(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)])
    assert eternal_number(g, 1).gamma_eternal == 5
    for q_max in (1, 4):
        report = eternal_number(g, 1, q_max=q_max)
        assert not report.resolved and not report.budget_exceeded
        assert report.lower_bound <= 5 <= report.upper_bound
    # Each component is capped at q_max minus the other's gamma_k (2 and 1),
    # so under q_max = 1 neither runs a fixed point.
    assert all(not r.per_q for r in eternal_number(g, 1, q_max=1).component_reports)
    assert eternal_number(g, 1, q_max=5).gamma_eternal == 5


def test_budget_counts_dominating_configurations():
    # C(31+5, 6) * 31 multiset checks would exceed the default budget, but
    # only 1,958 six-guard configurations dominate at k = 2.
    g = build_perfect_mary(2, 4)
    report = eternal_number(g, 2)
    assert report.gamma_eternal == 6 == mary_number_recursive(2, 4, 2)
    assert [s.num_configs for s in report.per_q] == [1, 67, 1958]
    assert verify_certificate(g, report.certificate)[0]


def test_budget_degrades_to_bounds():
    g = path_graph(10)
    report = eternal_number(g, 2, budget=40)
    assert report.budget_exceeded and not report.resolved
    assert report.lower_bound >= gamma_k(g, 2).gamma
    assert report.upper_bound == gamma_k(g, 1).gamma
    with pytest.raises(BudgetExceededError):
        eternal_survivors(g, 2, 4, budget=40)
    with pytest.raises(BudgetExceededError):
        is_eternal_set(g, 2, [1, 4, 7, 9], budget=40)


def test_q_range_is_respected():
    p7 = path_graph(7)
    report = eternal_number(p7, 2, q_max=2)
    assert not report.resolved and report.lower_bound == 3
    # A fixed point exists at any size above the true number.
    assert eternal_survivors(p7, 2, 4)


def test_argument_validation():
    p3 = path_graph(3)
    with pytest.raises(ValueError):
        eternal_number(p3, 0)
    for k in (0, -1):
        with pytest.raises(ValueError):
            eternal_survivors(path_graph(4), k, 4)
    with pytest.raises(ValueError):
        is_eternal_set(p3, 2, [7])
    with pytest.raises(ValueError):
        eternal_survivors(Graph.build(4, [(0, 1), (2, 3)]), 1, 2)


def test_unresolved_lower_bound_never_overshoots():
    # Even when the caller caps the search below the true number, the
    # reported bracket must still contain it: P5 at k = 1 has gamma_1 = 2
    # and eternal number 3, so q_max = 1 leaves no size to try and
    # q_max = 2 stops after one empty fixed point.
    p5 = path_graph(5)
    for q_max in (1, 2):
        report = eternal_number(p5, 1, q_max=q_max)
        assert not report.resolved
        assert report.lower_bound <= 3 <= report.upper_bound
