"""Self-check of the end-to-end benchmark.

    python3 -m pytest e2ebench -q

Runs one small instance per workload through the real benchmark loop
(traced and untraced), and checks that the oracle table, the tampered-
certificate path and the missing-sources exit behave.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from workloads import WORKLOADS, edge_list, labeling_rng

sys.path.insert(0, str(run.SRC))

from ekdom.closed_forms import cycle_number, path_number  # noqa: E402
from ekdom.mary import mary_number_recursive  # noqa: E402

SMALL = {"elim": "S333-k1", "certify": "T33-k3", "wide": "C21-k1"}


def small(workload: str):
    return [i for i in WORKLOADS[workload] if i.name == SMALL[workload]]


def test_oracle_matches_closed_forms():
    formulas = {
        "path": lambda p, k: path_number(p[0], k),
        "cycle": lambda p, k: cycle_number(p[0], k),
        "mary": lambda p, k: mary_number_recursive(p[0], p[1], k),
    }
    for instances in WORKLOADS.values():
        for inst in instances:
            if inst.family in formulas:
                assert formulas[inst.family](inst.params, inst.k) == inst.expected, inst.name
            assert inst.per_q[inst.expected][1] > 0
            assert all(s == 0 for q, (_, s) in inst.per_q.items() if q < inst.expected)


def test_relabeling_is_seeded():
    inst = WORKLOADS["elim"][0]
    first = edge_list(inst, labeling_rng("elim", 1, 0, inst))
    assert first == edge_list(inst, labeling_rng("elim", 1, 0, inst))
    assert first != edge_list(inst, labeling_rng("elim", 1, 1, inst))
    fixed = [i for i in WORKLOADS["wide"] if not i.shuffle][0]
    assert edge_list(fixed, labeling_rng("wide", 1, 0, fixed)) == \
        edge_list(fixed, labeling_rng("wide", 2, 5, fixed))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_instance_traced_and_untraced(workload):
    result, record = run.run(workload, seed=3, seconds=0, trace=True,
                             instances=small(workload))
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    # each round: eternal + verify, untraced and traced
    assert result["attempted"] == 4 * record["rounds"]
    metrics = result["metrics"]
    assert metrics["kernel.checks"]["value"] > 0
    assert metrics["solver.cert_family"]["value"] > 0
    shares = [v["value"] for k, v in metrics.items() if k.endswith(".share")]
    assert abs(sum(shares) - 1.0) < 1e-9


def test_traced_process_matches_untraced(tmp_path):
    inst = small("elim")[0]
    graph = tmp_path / "g.edges"
    graph.write_text(edge_list(inst, labeling_rng("elim", 7, 0, inst)), encoding="utf-8")
    bench = run.Bench("elim", 7, True, run.Runner(tmp_path, time.monotonic() + 120))
    plain = bench.run_pair(inst, graph, "plain", traced=False)
    traced = bench.run_pair(inst, graph, "traced", traced=True)
    assert not bench.failures
    assert plain[2] == traced[2]  # answer, per-q counts, rounds and checks
    counters = json.loads(traced[4][0].read_text(encoding="utf-8"))["counters"]
    assert counters["kernel.checks"] == sum(s["checks"] for s in plain[2]["per_q"])


def test_tampered_certificate_is_a_failed_operation(monkeypatch):
    check = run.Bench.check_eternal

    def check_then_tamper(self, inst, tag, proc, cert):
        payload = check(self, inst, tag, proc, cert)
        if payload is not None:
            doc = json.loads(cert.read_text(encoding="utf-8"))
            doc["response"].pop()
            cert.write_text(json.dumps(doc), encoding="utf-8")
        return payload

    monkeypatch.setattr(run.Bench, "check_eternal", check_then_tamper)
    result, record = run.run("certify", seed=1, seconds=0, trace=False,
                             instances=small("certify"))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("verify exit 3" in f for f in record["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "elim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
