"""Turn run records into the benchmark's end-to-end and per-layer metrics.

The metric names, units and directions live in ``BENCHMARK.json`` at the
root of the repository; this module computes their values.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, for the tail latency.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(ordered: Sequence[float]) -> Tuple[float, float, int]:
    """``(pct, value, beyond)``: the highest ladder percentile with at
    least :data:`TAIL_MIN_BEYOND` samples above its rank (the median when
    there are too few samples for any)."""
    n = len(ordered)
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, percentile(ordered, pct), beyond
    raise AssertionError("unreachable")


def latency_summary(latencies_us: Sequence[int]) -> Dict[str, Any]:
    ordered = sorted(latencies_us)
    if not ordered:
        return {"samples": 0}
    pct, value, beyond = tail(ordered)
    return {
        "samples": len(ordered),
        "p50_ms": percentile(ordered, 50.0) / 1000.0,
        "tail_pct": pct,
        "tail_ms": value / 1000.0,
        "tail_beyond": beyond,
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(
    runs: List[Dict[str, Any]],
    setup_samples: List[float],
    reference_samples: List[float],
) -> Dict[str, Any]:
    """Pool the parts of one seed.  Each part's wall time is the median
    of its repeated runs; virtual-time figures are identical across the
    repeats (the caller checks that) and come from the pooled parts.

    Wall times are rescaled to a host that runs the reference task in
    ``reference.NOMINAL_S``: multiplied by ``NOMINAL_S`` over the median
    time the task took next to these runs."""
    from lyrabench.reference import NOMINAL_S

    by_part: Dict[int, List[Dict[str, Any]]] = {}
    for r in runs:
        by_part.setdefault(r["part"], []).append(r)
    parts = [group[0] for _, group in sorted(by_part.items())]
    run_s = sum(statistics.median(r["run_s"] for r in group) for group in by_part.values())
    ref_run_s = run_s * NOMINAL_S / statistics.median(reference_samples)
    committed = sum(r["committed"] for r in parts)
    lat = latency_summary([x for r in parts for x in r["latencies_us"]])
    return {
        "ref_us_per_tx": _metric(ref_run_s / committed * 1e6, "us"),
        "ref_sim_speed": _metric(sum(r["virtual_s"] for r in parts) / ref_run_s, "s/s"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "commit_p50_ms": _metric(lat["p50_ms"], "ms"),
        "commit_tail_ms": _metric(lat["tail_ms"], "ms"),
        "committed_frac": _metric(committed / sum(r["submitted"] for r in parts), "frac"),
    }


def _median_ms(samples: Optional[Sequence[int]]) -> float:
    return statistics.median(samples) / 1000.0 if samples else 0.0


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics from an untraced run and a traced run of the
    same input.  Counts and self time come from the traced run; wall
    times of whole phases (loop, build, result assembly, shard critical
    path) come from the untraced one."""
    tx = traced["committed"]
    layers = traced["layers"]
    calls = layers["calls"]
    covered = layers["covered_s"]
    counters = traced["counters"]
    faults = counters["fault_stats"]

    def frac(layer: str) -> float:
        return layers["self_s"].get(layer, 0.0) / covered

    def per_tx(*keys: str) -> float:
        return sum(calls.get(k, 0) for k in keys) / tx

    # Every accepted instance is one entry of the decided prefix; every
    # node decides each rejected instance (the counter sums over nodes).
    accepted = max(length for length, _ in traced["prefixes"].values())
    rejected = counters["rejected_instances"] / len(traced["prefixes"])
    sent = calls.get("Network.send", 0) + layers["broadcast_dsts"]
    decides = calls.get("FaultInjector.decide", 0)
    lookups = counters["verify_hits"] + counters["verify_misses"]
    phases = traced["phases_us"]
    shard = plain.get("shard")
    if shard is not None:
        loop_cpu = shard["worker_loop_cpu_s"]
        critical = max(loop_cpu)
        imbalance = critical / min(loop_cpu) if min(loop_cpu) > 0 else 0.0
        barriers = shard["barriers"]
        frames_per_barrier = shard["frames_exchanged"] / barriers if barriers else 0.0
        barrier_wait = plain["run_s"] - critical
    else:
        critical, imbalance, barriers = plain["loop_s"], 1.0, 0
        frames_per_barrier, barrier_wait = 0.0, 0.0

    values = {
        "sim.events_per_tx": (counters["events"] / tx, "1/tx"),
        "sim.schedule_calls_per_tx": (
            per_tx("Simulator.schedule", "Simulator.schedule_block"), "1/tx"
        ),
        "sim.loop_s": (plain["loop_s"], "s"),
        "sim.self_frac": (frac("sim"), "frac"),
        "net.msgs_per_tx": (counters["messages_delivered"] / tx, "1/tx"),
        "net.bytes_per_tx": (counters["bytes_delivered"] / tx, "B/tx"),
        "net.send_calls_per_tx": (per_tx("Network.send", "Network.broadcast"), "1/tx"),
        "net.self_frac": (frac("net"), "frac"),
        "net.reliable.retransmits_per_tx": (faults.get("retransmits", 0) / tx, "1/tx"),
        "net.reliable.self_frac": (frac("net.reliable"), "frac"),
        "net.faults.drop_frac": (
            faults.get("dropped", 0) / decides if decides else 0.0, "frac"
        ),
        "net.faults.self_frac": (frac("net.faults"), "frac"),
        "net.delivered_per_sent": (
            counters["messages_delivered"] / sent if sent else 0.0, "ratio"
        ),
        "core.instances_per_tx": ((accepted + rejected) / tx, "1/tx"),
        "core.accept_ratio": (
            accepted / (accepted + rejected) if accepted + rejected else 0.0, "frac"
        ),
        "core.node.self_frac": (frac("core.node"), "frac"),
        "core.vvb.self_frac": (frac("core.vvb"), "frac"),
        "core.dbft.self_frac": (frac("core.dbft"), "frac"),
        "core.commit.self_frac": (frac("core.commit"), "frac"),
        "core.commit.status_calls_per_tx": (
            per_tx("CommitState.on_status", "CommitState.on_status_delta"), "1/tx"
        ),
        "core.boc_ms": (_median_ms(phases.get("proposed->decided")), "ms"),
        "core.commit_lag_ms": (_median_ms(phases.get("decided->committed")), "ms"),
        "core.reveal_ms": (_median_ms(phases.get("committed->executed")), "ms"),
        "crypto.sign_per_tx": (per_tx("Signer.sign"), "1/tx"),
        "crypto.verify_per_tx": (per_tx("KeyRegistry.verify"), "1/tx"),
        "crypto.share_verify_per_tx": (per_tx("ThresholdScheme.share_verify"), "1/tx"),
        "crypto.combine_per_tx": (per_tx("ThresholdScheme.combine"), "1/tx"),
        "crypto.encrypt_per_tx": (per_tx("VssObfuscation.encrypt"), "1/tx"),
        "crypto.partial_decrypt_per_tx": (per_tx("VssObfuscation.partial_decrypt"), "1/tx"),
        "crypto.decrypt_per_tx": (per_tx("VssObfuscation.decrypt"), "1/tx"),
        "crypto.verify_cache_hit_ratio": (
            counters["verify_hits"] / lookups if lookups else 0.0, "frac"
        ),
        "crypto.self_frac": (frac("crypto"), "frac"),
        "workload.client.self_frac": (frac("workload.client"), "frac"),
        "metrics.watchdog.checks": (counters["invariant_checks"], "count"),
        "metrics.watchdog.self_frac": (frac("metrics.watchdog"), "frac"),
        "shard.critical_path_s": (critical, "s"),
        "shard.imbalance": (imbalance, "ratio"),
        "shard.barriers": (barriers, "count"),
        "shard.frames_per_barrier": (frames_per_barrier, "1/barrier"),
        "shard.barrier_wait_s": (barrier_wait, "s"),
        "harness.wall_us_per_tx": (plain["run_s"] / plain["committed"] * 1e6, "us"),
        "harness.build_s": (plain["build_s"] or 0.0, "s"),
        "harness.result_s": (
            plain["run_s"] - plain["loop_s"] if shard is None else 0.0, "s"
        ),
        "trace.overhead_frac": (traced["run_s"] / plain["run_s"] - 1.0, "frac"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}
