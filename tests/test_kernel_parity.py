"""The compiled and pure kernels must agree byte for byte, witness tables,
work counters and certificate rows included, and their sweep must equal
the plain cursor scan of ``helpers.reference_elimination``.  Their
configuration walks must list the brute-force dominating multisets of
``helpers.oracle_dominating_multisets``, in order, and count the same
prefixes.

When the extension is not built, ``_ckernel.c`` is compiled into a
temporary directory and loaded from there, outside the package, so the
comparison still runs wherever a C compiler exists.
"""
import importlib.util
import inspect
import random
from array import array
import shlex
import subprocess
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekdom._kernel
from ekdom import graph, solver
from ekdom._kernel import KernelWork, pack_masks, pure
from ekdom.closed_forms import cycle_graph, path_graph
from ekdom.configs import enumerate_dominating_configs
from ekdom.domination import ball_masks, gamma_k
from ekdom.graph import DEFAULT_BUDGET, Graph, all_pairs_distances
from ekdom.mary import build_perfect_mary

from helpers import (DEFAULT_SEED, least_survivor_certificate, oracle_dominating_multisets,
                     random_connected_graph, random_graph, reference_certificate,
                     reference_elimination)

try:
    from ekdom._kernel import _ckernel
except ImportError:
    _ckernel = None

KERNEL_C = Path(pure.__file__).with_name("_ckernel.c")


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    if _ckernel is not None:
        return _ckernel
    cc = sysconfig.get_config_var("CC")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    if not cc or not suffix:
        pytest.skip("no C compiler configured")
    out = tmp_path_factory.mktemp("ckernel") / f"_ckernel{suffix}"
    cmd = shlex.split(cc) + ["-O2", "-shared", "-fPIC",
                             "-I", sysconfig.get_paths()["include"],
                             str(KERNEL_C), "-o", str(out)]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        pytest.skip(f"cannot compile the C kernel: {exc}")
    spec = importlib.util.spec_from_file_location("_ckernel", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _instance(g, k, q):
    dist = all_pairs_distances(g)
    states = enumerate_dominating_configs(dist, k, q)
    return g.n, _packed_balls(g, k), states


def _corpus():
    rng = random.Random(DEFAULT_SEED)
    graphs = [path_graph(7), path_graph(10), cycle_graph(9)]
    graphs += [random_connected_graph(rng.randint(4, 8), 0.3, rng) for _ in range(6)]
    for g in graphs:
        for k in (1, 2):
            for q in (1, 2, 3):
                yield _instance(g, k, q)
    # More than 64 vertices: past one machine word of vertex flags.
    tree = build_perfect_mary(4, 3)
    for g, k, q in [(path_graph(70), 20, 2), (path_graph(70), 12, 3),
                    (cycle_graph(66), 11, 3), (tree, 2, 2), (tree, 3, 1), (tree, 4, 2)]:
        yield _instance(g, k, q)
    # The guard counts of the elim workload's largest rounds, where
    # augmenting paths run through several guards.
    yield _instance(path_graph(12), 1, 6)
    yield _instance(path_graph(14), 2, 5)
    # The elim workload's largest level (1,344 states), with its longest
    # run skips.
    yield _instance(path_graph(14), 1, 7)


def _assert_agree(compiled, n, masks, states, budget):
    # Different fill values: each kernel must overwrite every entry.
    wit_c = array("i", [7]) * (len(states) * n)
    wit_py = array("i", [-7]) * (len(states) * n)
    work_c = array("q", [3]) * len(KernelWork._fields)
    work_py = array("q", [-3]) * len(KernelWork._fields)
    got_c = compiled.run_elimination(n, masks, states, wit_c, budget, work=work_c)
    got_py = pure.run_elimination(n, masks, states, wit_py, budget, work=work_py)
    assert type(got_c[0]) is bytearray and bytes(got_c[0]) == bytes(got_py[0])
    assert got_c[1:] == got_py[1:]
    assert wit_c == wit_py
    assert work_c == work_py
    probes, dead, matchings, matched, jumped = work_c
    assert probes == dead + matchings and 0 <= matched <= matchings and jumped >= 0
    if not got_c[3]:
        _assert_rows_agree(compiled, n, masks, states, got_c[0], wit_c)
    return got_c, wit_c


def _assert_rows_agree(compiled, n, masks, states, alive, wit, cap=20_000):
    """Both kernels' certificate closures; they must be equal."""
    got_c = compiled.certificate_rows(n, masks, states, alive, wit, cap)
    got_py = pure.certificate_rows(n, masks, states, alive, wit, cap)
    assert got_c == got_py
    return got_c


def test_kernels_agree_exactly(compiled):
    for n, masks, states in _corpus():
        for sweep in (states, states[::-1]):
            for budget in (5_000_000, 100):
                _assert_agree(compiled, n, masks, sweep, budget)


def _crowded_states(n, q, holes, rng):
    """Six sorted states of q guards on range(n), not all dominating: each
    leaves one of three sets of ``holes`` vertices empty (a random set and
    its jitters by one step, of which any path has three) and spreads the
    guards over the rest by one of two random splits, so many pairs of
    states are a step apart and many are not."""
    size = n - holes
    splits = []
    for _ in range(2):
        cuts = sorted(rng.sample(range(1, q), size - 1))
        splits.append([b - a for a, b in zip([0, *cuts], [*cuts, q])])
    base = rng.sample(range(n), holes)
    gaps = {frozenset(base)}
    while len(gaps) < 3:
        jitter = frozenset(min(n - 1, max(0, h + rng.randint(-1, 1))) for h in base)
        if len(jitter) == holes:
            gaps.add(jitter)
    return sorted(tuple(v for v, c in zip(sorted(set(range(n)) - gap), split)
                        for _ in range(c)) for gap in gaps for split in splits)


@pytest.mark.parametrize("q", [63, 64, 65, 130])
def test_kernels_agree_past_one_guard_word(compiled, q):
    # The compiled matcher keeps sets of guards in 64-bit words: 63 to 65
    # guards straddle the first word's end and 130 need three.  P5 holds
    # many guards per vertex; the 70-vertex path also needs two words per
    # ball.  130 guards with two holes on it leave six survivors, whose
    # closure runs long augmenting paths through crowded posts.
    rng = random.Random(DEFAULT_SEED + q)
    cases = [(path_graph(5), 2, rng, None),
             (path_graph(70), 70 - (q if q <= 70 else q // 2), rng, None)]
    if q == 130:
        cases.append((path_graph(70), 2, random.Random(5), 6))
    for g, holes, rng, survivors in cases:
        n, masks = g.n, _packed_balls(g, 1)
        states = _crowded_states(n, q, holes, rng)
        assert len(states) == 6 and {len(s) for s in states} == {q}
        for sweep in (states, states[::-1]):
            for budget in (5_000_000, 20):
                got, _ = _assert_agree(compiled, n, masks, sweep, budget)
                assert survivors is None or budget == 20 or sum(got[0]) == survivors


def test_kernels_agree_when_budget_trips(compiled):
    n, masks, states = _instance(path_graph(10), 2, 4)
    got, _ = _assert_agree(compiled, n, masks, states, 100)
    assert got[3] is True


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(n=st.integers(2, 10), extra=st.floats(0.0, 0.5), rng=st.randoms(use_true_random=False),
       k=st.integers(1, 3), q=st.integers(1, 4), reverse=st.booleans(),
       budget=st.one_of(st.integers(0, 300), st.just(5_000_000)))
def test_kernels_agree_on_random_graphs(compiled, n, extra, rng, k, q, reverse, budget):
    # The run skips and the prefix reuse pass only unreachable states, so
    # both kernels sweep exactly like one full matching per live candidate.
    # The reference reads distances, the kernels ball masks.
    g = random_connected_graph(n, extra, rng)
    n, masks, states = _instance(g, k, q)
    if reverse:
        states = states[::-1]
    got, table = _assert_agree(compiled, n, masks, states, budget)
    wit = array("i", [0]) * (len(states) * n)
    expected = reference_elimination(all_pairs_distances(g), k, states, wit, budget)
    assert bytes(got[0]) == bytes(expected[0]) and got[1:] == expected[1:]
    assert table == wit


@settings(derandomize=True, max_examples=400, deadline=None)
@given(n=st.integers(2, 9), extra=st.floats(0.0, 0.5), rng=st.randoms(use_true_random=False),
       k=st.integers(1, 3), extra_guard=st.integers(0, 1))
def test_certificate_rows_match_the_survivor_scan(compiled, n, extra, rng, k, extra_guard):
    # q runs from gamma_k (often 1 at k = 3) to gamma_k + 1, where
    # multisets with a repeated post dominate too.
    g = random_connected_graph(n, extra, rng)
    q = gamma_k(g, k).gamma + extra_guard
    n, masks, states = _instance(g, k, q)
    wit = array("i", [0]) * (len(states) * n)
    alive, _, _, exceeded = pure.run_elimination(n, masks, states, wit, DEFAULT_BUDGET)
    assert not exceeded
    got = _assert_rows_agree(compiled, n, masks, states, alive, wit)
    survivors = frozenset(st for st, live in zip(states, alive) if live)
    if not survivors:
        assert got == ([], [])
        return
    members, rows = got
    expected = reference_certificate(g, k, q, survivors)
    assert tuple(states[i] for i in members) == expected.family
    assert rows == expected.rows
    # One member short of the closure: both kernels give up.
    for kernel in (compiled, pure):
        assert kernel.certificate_rows(n, masks, states, alive, wit, len(members) - 1) is None
        assert kernel.certificate_rows(n, masks, states, alive, wit, len(members)) == got


def test_certificate_rows_fit_a_cap_the_least_survivor_closure_passes(compiled):
    # C30 at k = 3: 756 survivors.  Answering every attack with the least
    # reachable survivor closes 464 members; drawing on the family first,
    # 95.
    g = cycle_graph(30)
    n, masks, states = _instance(g, 3, 5)
    wit = array("i", [0]) * (len(states) * n)
    alive, _, _, exceeded = compiled.run_elimination(n, masks, states, wit, DEFAULT_BUDGET)
    assert not exceeded and sum(alive) == len(states) == 756
    survivors = frozenset(states)
    assert len(least_survivor_certificate(g, 3, 5, survivors).family) == 464
    got = _assert_rows_agree(compiled, n, masks, states, alive, wit, cap=100)
    assert got is not None and len(got[0]) == 95 and len(got[1]) == 95 * n
    expected = reference_certificate(g, 3, 5, survivors)
    assert (tuple(states[i] for i in got[0]), got[1]) == (expected.family, expected.rows)


def _bad_masks(masks):
    """Malformed ``masks`` for the ball masks of P5, with the error each
    kernel entry point must raise."""
    return [
        (ValueError, masks[:-1]),                      # one word short
        (ValueError, masks + array("Q", [0])),         # one word long
        (TypeError, list(masks)),                      # not a buffer
        (TypeError, array("q", masks)),                # signed words
        (ValueError, _packed_balls(path_graph(6), 1)),  # masks for 6 vertices
    ]


def test_compiled_kernel_rejects_malformed_input(compiled):
    n, masks, states = _instance(path_graph(5), 1, 2)
    size = len(states) * n
    for kernel in (compiled, pure):
        for error, bad in _bad_masks(masks):
            with pytest.raises(error):
                kernel.run_elimination(n, bad, states, array("i", [0]) * size, DEFAULT_BUDGET)
    bad = [
        (ValueError, states + [(0, 1, 2)]),        # states differ in size
        (ValueError, [(0, n)]),                    # vertex out of range
        (ValueError, [(3, 1)]),                    # not sorted
        (TypeError, [(0, 1.5)]),                   # not an int
    ]
    for error, sts in bad:
        with pytest.raises(error):
            compiled.run_elimination(n, masks, sts, array("i", [0]) * (len(sts) * n),
                                     DEFAULT_BUDGET)
    # A sentinel tail past a short table shows nothing is written out of bounds.
    short = array("i", [5]) * (size + 8)
    view = memoryview(short)[:size - 1]
    bad_wit = [
        (ValueError, view),                       # one item short
        (ValueError, array("i", [0]) * (size + 1)),  # one item long
        (TypeError, array("q", [0]) * size),      # 8-byte items
        (BufferError, bytes(4 * size)),           # read-only
    ]
    for error, wit in bad_wit:
        with pytest.raises(error):
            compiled.run_elimination(n, masks, states, wit, DEFAULT_BUDGET)
    view.release()
    assert short == array("i", [5]) * (size + 8)
    wit = array("i", [0]) * size
    bad_work = [
        (ValueError, array("q", [0]) * 4),       # one item short
        (ValueError, array("q", [0]) * 6),       # one item long
        (TypeError, array("i", [0]) * 5),        # 4-byte items
        (BufferError, bytes(40)),                # read-only
    ]
    for error, work in bad_work:
        with pytest.raises(error):
            compiled.run_elimination(n, masks, states, wit, DEFAULT_BUDGET, work)
    with pytest.raises(ValueError):
        pure.run_elimination(n, masks, states, wit, DEFAULT_BUDGET, array("q", [0]) * 4)
    # The walk.
    args = dict(n=5, q=2, masks=masks, limit=None)
    bad_walk = [
        dict(q=0),                                   # no guard
        dict(q=-1),
        dict(masks=masks[:-1]),                      # one word short
        dict(masks=masks + array("Q", [0])),         # one word long
        dict(n=6),                                   # masks for 5 vertices
        dict(n=65),                                  # two words per ball
        dict(n=-1),
        dict(work=array("q", [0]) * 2),              # work holds one counter
        dict(work=array("q")),
    ]
    bad_compiled_walk = [
        (ValueError, dict(q=2 ** 31)),               # q does not fit an int
        (ValueError, dict(n=2 ** 31)),               # n does not fit an int
        (TypeError, dict(masks=array("i", [0]) * 5)),    # 4-byte words
        (TypeError, dict(masks=list(masks))),        # not a buffer
        (TypeError, dict(work=array("i", [0]))),     # 4-byte counter
        (BufferError, dict(work=bytes(8))),          # read-only
        (TypeError, dict(limit="3")),
    ]
    for kernel in (compiled, pure):
        for bad in bad_walk:
            work = array("q", [7])
            with pytest.raises(ValueError):
                kernel.enumerate_states(**{**args, "work": work, **bad})
            assert work == array("q", [7])
    for error, bad in bad_compiled_walk:
        with pytest.raises(error):
            compiled.enumerate_states(**dict(args, **bad))
    # A limit past the range of a C integer cuts nothing.
    assert compiled.enumerate_states(5, 2, masks, 2 ** 70) == \
        compiled.enumerate_states(5, 2, masks) == pure.enumerate_states(5, 2, masks)


def _packed_balls(g, k):
    return pack_masks(ball_masks(all_pairs_distances(g), k), g.n)


def _walk(kernel, n, q, masks, limit=None):
    work = array("q", [-1])
    return kernel.enumerate_states(n, q, masks, limit, work), work[0]


def _assert_walks_agree(compiled, g, k, q, expected, cut):
    """Both walks list ``expected``, also when cut by ``limit``, and
    count the same prefixes, fewer when cut."""
    masks = _packed_balls(g, k)
    counts = []
    for limit in (None, 0, cut, len(expected)):
        got_c, prefixes_c = _walk(compiled, g.n, q, masks, limit)
        got_py, prefixes_py = _walk(pure, g.n, q, masks, limit)
        want = expected if limit is None else expected[:limit + 1]
        assert got_c == got_py == want
        assert all(type(state) is tuple for state in got_c)
        assert prefixes_c == prefixes_py >= len(want)
        counts.append(prefixes_c)
    assert max(counts) == counts[0]


walk_graphs = st.builds(random_graph, n=st.integers(1, 10), extra=st.floats(0.0, 0.5),
                        rng=st.randoms(use_true_random=False), connected=st.booleans())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(g=walk_graphs, k=st.integers(0, 3), q=st.integers(1, 4), frac=st.floats(0.0, 1.0))
def test_walks_list_the_dominating_multisets_in_order(compiled, g, k, q, frac):
    expected = oracle_dominating_multisets(g, k, q)
    _assert_walks_agree(compiled, g, k, q, expected, int(frac * len(expected)))


def _shuffled_path(n, seed):
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return Graph.build(n, [(ids[i], ids[i + 1]) for i in range(n - 1)])


@pytest.mark.parametrize("g, k, q", [
    (build_perfect_mary(4, 3), 3, 2),   # 85 vertices: two words per ball
    (path_graph(131), 33, 2),           # 131 vertices: three words, the last one short
    (_shuffled_path(131, DEFAULT_SEED), 33, 2),  # high words fail the reach prune too
    (path_graph(129), 1, 1),            # no single guard dominates: an empty walk
])
def test_walks_agree_past_one_machine_word(compiled, g, k, q):
    expected = oracle_dominating_multisets(g, k, q)
    _assert_walks_agree(compiled, g, k, q, expected, len(expected) // 2)


def test_selection_layer_solves_graphs_past_64_vertices():
    # 70 vertices do not fit one machine word of vertex flags; whichever
    # kernel is active must still answer correctly.
    from ekdom.solver import is_eternal_set
    wide = path_graph(70)
    assert is_eternal_set(wide, 69, [0])   # diameter 69: one guard reaches all
    assert not is_eternal_set(wide, 3, [35])


def test_pure_twins_take_more_guards_than_the_recursion_limit(monkeypatch):
    # 1,100 guards on one vertex: the walk, the sweep and the closure's
    # matching keep their search paths on explicit stacks.
    assert pure.enumerate_states(1, 1100, array("Q", [1]), 0) == [(0,) * 1100]
    for name in ("enumerate_states", "run_elimination", "certificate_rows"):
        monkeypatch.setattr(ekdom._kernel, name, getattr(pure, name))
    graph._derived.cache_clear()
    try:
        assert solver.is_eternal_set(Graph.build(1, []), 1, [0] * 1100)
    finally:
        graph._derived.cache_clear()


def test_certificate_rows_reject_malformed_input(compiled):
    n, masks, states = _instance(path_graph(5), 2, 2)
    size = len(states) * n
    wit = array("i", [0]) * size
    alive, _, _, _ = pure.run_elimination(n, masks, states, wit, DEFAULT_BUDGET)
    both = [
        (ValueError, alive[:-1], wit),                     # alive one flag short
        (ValueError, alive + b"\x01", wit),                 # alive one flag long
        (ValueError, alive, array("i", [0]) * (size - 1)),  # wit one item short
        (ValueError, alive, array("i", [0]) * (size + 1)),  # wit one item long
        (ValueError, alive, array("i", [-1]) * size),      # no witness answers
        (ValueError, alive, array("i", [len(states)]) * size),  # witness past the end
    ]
    for kernel in (compiled, pure):
        for error, flags, table in both:
            with pytest.raises(error):
                kernel.certificate_rows(n, masks, states, flags, table, 100)
        for error, bad in _bad_masks(masks):
            with pytest.raises(error):
                kernel.certificate_rows(n, bad, states, alive, wit, 100)
    compiled_only = [
        (TypeError, alive, array("q", [0]) * size),   # 8-byte witness items
        (TypeError, list(alive), wit),                # alive not a buffer
        (TypeError, array("i", list(alive)), wit),    # 4-byte flags
        (ValueError, alive, memoryview(wit)[:-1]),    # a view one item short
    ]
    for error, flags, table in compiled_only:
        with pytest.raises(error):
            compiled.certificate_rows(n, masks, states, flags, table, 100)
    # Read-only buffers are fine: the closure only reads them.
    got = compiled.certificate_rows(n, masks, states, bytes(alive),
                                    memoryview(wit).toreadonly(), 100)
    assert got == pure.certificate_rows(n, masks, states, alive, wit, 100)


def test_twins_name_the_same_arguments(compiled):
    # The compiled signatures are hand-written, callers such as the e2e
    # tracer bind arguments by name, and a stale build fails here first.
    for name in ("enumerate_states", "run_elimination", "certificate_rows"):
        got = [[(p.name, p.default) for p in inspect.signature(getattr(kernel, name))
                .parameters.values()] for kernel in (compiled, pure)]
        assert got[0] == got[1], name
