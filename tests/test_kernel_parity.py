"""The compiled and pure kernels must agree byte for byte.

When the extension is not built (no Cython), the committed generated C is
compiled into a temporary directory and loaded from there, outside the
package, so the comparison still runs wherever a C compiler exists.
"""
import importlib.util
import random
import shlex
import subprocess
import sysconfig
from pathlib import Path

import pytest

from ekdom._kernel import pure
from ekdom.closed_forms import cycle_graph, path_graph
from ekdom.configs import enumerate_dominating_configs
from ekdom.graph import all_pairs_distances

from helpers import DEFAULT_SEED, random_connected_graph

try:
    from ekdom._kernel import _speedups
except ImportError:
    _speedups = None

GENERATED_C = Path(pure.__file__).with_name("_speedups.c")


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    if _speedups is not None:
        return _speedups
    cc = sysconfig.get_config_var("CC")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    if not cc or not suffix or not GENERATED_C.is_file():
        pytest.skip("no C compiler configured or no generated C to build")
    out = tmp_path_factory.mktemp("speedups") / f"_speedups{suffix}"
    cmd = shlex.split(cc) + ["-O2", "-shared", "-fPIC",
                             "-I", sysconfig.get_paths()["include"],
                             str(GENERATED_C), "-o", str(out)]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        pytest.skip(f"cannot compile the generated kernel: {exc}")
    spec = importlib.util.spec_from_file_location("_speedups", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _instance(g, k, q):
    dist = all_pairs_distances(g)
    flat = [d for row in dist for d in row]
    states = enumerate_dominating_configs(dist, k, q)
    return g.n, k, flat, states


def _corpus():
    rng = random.Random(DEFAULT_SEED)
    graphs = [path_graph(7), path_graph(10), cycle_graph(9)]
    graphs += [random_connected_graph(rng.randint(4, 8), 0.3, rng) for _ in range(6)]
    for g in graphs:
        for k in (1, 2):
            for q in (1, 2, 3):
                yield _instance(g, k, q)


def test_kernels_agree_exactly(compiled):
    for n, k, flat, states in _corpus():
        for order in ("forward", "reverse"):
            got_c = compiled.run_elimination(n, k, flat, states, order, 5_000_000)
            got_py = pure.run_elimination(n, k, flat, states, order, 5_000_000)
            assert bytes(got_c[0]) == bytes(got_py[0])
            assert got_c[1:] == got_py[1:]


def test_kernels_agree_when_budget_trips(compiled):
    n, k, flat, states = _instance(path_graph(10), 2, 4)
    got_c = compiled.run_elimination(n, k, flat, states, "forward", 100)
    got_py = pure.run_elimination(n, k, flat, states, "forward", 100)
    assert got_c[3] is True and got_py[3] is True
    assert got_c[2] == got_py[2]


def test_selection_layer_falls_back_past_the_mask_width():
    # 70 vertices exceed the compiled kernel's 64-bit masks; the selection
    # layer must route to the pure kernel and still answer correctly.
    from ekdom import _kernel
    from ekdom.solver import is_eternal_set
    wide = path_graph(70)
    assert _kernel.active_kernel(wide.n) == "pure"
    assert is_eternal_set(wide, 69, [0])   # diameter 69: one guard reaches all
    assert not is_eternal_set(wide, 3, [35])
