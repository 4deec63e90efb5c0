"""The benchmark's own tests: input generation, the correctness gate
(including its calibration against a run that decides nothing), the
read-only tracer, sharded/single-process agreement and the refusal to
run without the program's source.

    python3 -m pytest -q lyrabench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from lyrabench import gate, report, workloads
from lyrabench.reference import NOMINAL_S
from lyrabench.run import ROOT, spawn

DENSE = workloads.WORKLOADS["lyra-n4-dense"]


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def _spec(name, seed, part=0):
    workload = workloads.WORKLOADS[name]
    offsets = workloads.generate_offsets(workload, seed, part)
    return workloads.build_config(workload, seed, part, offsets).to_dict()


def test_same_seed_gives_identical_spec():
    assert _spec("lyra-n4-chaos", 7) == _spec("lyra-n4-chaos", 7)


def test_other_seed_or_part_gives_other_spec():
    assert _spec("lyra-n4-chaos", 7) != _spec("lyra-n4-chaos", 8)
    assert _spec("lyra-n4-chaos", 7, 0) != _spec("lyra-n4-chaos", 7, 1)


def test_sharded_workload_shares_the_sparse_input():
    assert _spec("lyra-n32-sparse", 3) == _spec("lyra-n32-sharded", 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_offsets_fill_the_submission_window_only(name):
    workload = workloads.WORKLOADS[name]
    offsets = workloads.generate_offsets(workload, 1, 0)
    window = workloads.submit_window_us(workload)
    flat = [t for node in offsets for t in node]
    expected = round(workload.rate_tps_per_node * workload.n * window / 1e6)
    assert len(offsets) == workload.n
    assert len(flat) == expected
    assert all(0 <= t < window for t in flat)
    assert all(node == sorted(node) for node in offsets)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _check(outputs, **overrides):
    args = dict(
        safety_violation=None,
        invariant_violations=[],
        submitted=2,
        generated=2,
        decided={},
        perceived={},
        lambda_us=5000,
    )
    args.update(overrides)
    return gate.check_run(outputs, **args)


def test_gate_passes_agreeing_prefixes():
    longest = [(1, b"a"), (2, b"b")]
    assert _check({0: longest, 1: longest[:1]}) == []


def test_gate_rejects_empty_divergent_and_miscounted_runs():
    longest = [(1, b"a"), (2, b"b")]
    failures = _check({0: longest, 1: [], 2: [(1, b"x")]}, submitted=1)
    assert any("pid 1: empty" in f for f in failures)
    assert any("pid 2: decided prefix diverges" in f for f in failures)
    assert any("submitted 1" in f for f in failures)
    assert _check({})  # nobody decided anything


def test_gate_rejects_lemma2_violation():
    failures = _check(
        {0: [(1, b"a")]}, decided={b"c": 100}, perceived={0: {b"c": 10_000}}
    )
    assert any("lemma 2" in f for f in failures)


def test_gate_calibration_run_ending_before_clients_start_fails():
    """The empty-prefix failure mode: the horizon ends before the
    clients start, so nothing is submitted and nothing is decided."""
    horizon_ms = workloads.client_start_us() // 1000 - 100
    record = spawn(DENSE.name, 1, 0, "run", horizon_ms=horizon_ms)
    assert record["committed"] == 0
    assert any("empty decided prefix" in f for f in record["gate"])
    assert any("submitted 0 transactions" in f for f in record["gate"])


def test_gate_flags_the_known_chaos_safety_violation():
    """A real defect the gate caught: the chaos plan with a 7 s horizon
    makes pids 0 and 1 decide diverging logs on this input.  The
    benchmark's chaos workload keeps its 5 s horizon; once the protocol
    is fixed this run must pass the gate, and this test should assert so.
    """
    from repro.harness.factory import build_cluster

    workload = dataclasses.replace(workloads.WORKLOADS["lyra-n4-chaos"], horizon_ms=7000)
    offsets = workloads.generate_offsets(workload, 102, 3)
    cluster = build_cluster(workloads.build_config(workload, 102, 3, offsets))
    result = cluster.run()
    decided, perceived = gate.lemma2_inputs(cluster.nodes)
    failures = gate.check_run(
        {node.pid: node.output_sequence() for node in cluster.nodes},
        safety_violation=result.safety_violation,
        invariant_violations=result.invariant_violations,
        submitted=sum(c.stats.submitted for c in cluster.clients),
        generated=sum(len(o) for o in offsets),
        decided=decided,
        perceived=perceived,
        lambda_us=cluster.config.lambda_us,
    )
    assert any("SMR-Safety violated between pid 0 and pid 1" in f for f in failures)
    assert any("pid 1: decided prefix diverges" in f for f in failures)


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
def test_traced_run_passes_the_gate_and_is_read_only():
    plain = spawn(DENSE.name, 1, 0, "run")
    traced = spawn(DENSE.name, 1, 0, "traced")
    assert plain["gate"] == [] and traced["gate"] == []
    assert plain["committed"] == plain["generated"] > 0
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    assert sum(layers["self_s"].values()) == pytest.approx(layers["covered_s"])
    metrics = report.per_layer(plain, traced)
    assert metrics["crypto.encrypt_per_tx"]["value"] > 0
    assert metrics["core.boc_ms"]["value"] > 0


def test_sharded_run_decides_the_sparse_digest():
    sparse = spawn("lyra-n32-sparse", 1, 0, "run")
    sharded = spawn("lyra-n32-sharded", 1, 0, "run")
    assert sparse["gate"] == [] and sharded["gate"] == []
    assert sharded["digest"] == sparse["digest"]
    assert sharded["prefixes"] == sparse["prefixes"]
    assert sharded["shard"]["workers"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "lyrabench", tmp_path / "lyrabench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", DENSE.name, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# Metric arithmetic
# ----------------------------------------------------------------------
def _record(part, run_s, committed=10, submitted=10, lat=(1000, 2000)):
    return {
        "part": part, "run_s": run_s, "virtual_s": 2.0, "committed": committed,
        "submitted": submitted, "latencies_us": list(lat), "peak_rss_mb": 50.0,
    }


def test_end_to_end_pools_parts_and_takes_per_part_medians():
    runs = [_record(0, 1.0), _record(1, 3.0, committed=5), _record(0, 2.0),
            _record(0, 9.0)]
    reference = [NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S]
    metrics = report.end_to_end(runs, [0.5, 0.7, 0.6], reference)
    # Part 0's median is 2.0 s, part 1's is 3.0 s; 15 committed in all.
    # The reference ran twice its nominal time, so wall time is halved.
    assert metrics["ref_us_per_tx"]["value"] == pytest.approx(2.5 / 15 * 1e6)
    assert metrics["ref_sim_speed"]["value"] == pytest.approx(4.0 / 2.5)
    assert metrics["setup_s"]["value"] == 0.6
    assert metrics["committed_frac"]["value"] == pytest.approx(15 / 20)


def test_tail_needs_ten_samples_beyond():
    ordered = list(range(1, 1001))
    pct, value, beyond = report.tail(ordered)
    assert (pct, value, beyond) == (99.0, 990, 10)
    assert report.tail(list(range(26)))[0] == 50.0
