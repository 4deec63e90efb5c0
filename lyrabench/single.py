"""One benchmark run, alone in a fresh interpreter.

``run.py`` spawns this module once per run so module-level caches
(digests, Feldman verification, memo tables) and the peak-RSS counter
start empty every time, as they do for a user's first run::

    python3 -m lyrabench.single --workload lyra-n4-dense --seed 1 --part 0 \\
        --mode run --spawned-at "$(date +%s.%N)"

Modes: ``setup`` stops once the cluster is built, ``run`` also runs it,
``traced`` runs it under :class:`lyrabench.layers.LayerTracer`.  The last
line of standard output is the run's JSON record.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional


def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _prefixes(outputs) -> Dict[str, List[Any]]:
    from repro.sim.shard import digest_outputs

    return {
        str(pid): [len(out), digest_outputs({pid: out})]
        for pid, out in sorted(outputs.items())
    }


def _install_shard_hooks(tracer) -> List[Dict[str, Any]]:
    """Make each shard worker report what the gate and the trace need.

    Workers are forked from this process, so patching the worker-side
    ``_consolidate`` here reaches them; the coordinator-side ``_merge``
    hands the extras back.  Returns the list the extras land in.
    """
    from repro.sim import shard

    from lyrabench.gate import lemma2_inputs
    from lyrabench.layers import proposer_phase_samples

    extras: List[Dict[str, Any]] = []
    consolidate = shard._consolidate
    merge = shard._merge

    def consolidate_with_extras(cluster, local_nodes):
        blob = consolidate(cluster, local_nodes)
        blob["lyrabench"] = {
            "submitted": sum(
                c.stats.submitted for c in cluster.clients if c.home in local_nodes
            ),
            "lemma2": lemma2_inputs(cluster.local_nodes()),
            "verify_cache": cluster.registry.verify_cache_stats(),
            "trace": tracer.snapshot() if tracer is not None else None,
            "phases": (
                proposer_phase_samples(cluster.trace, local_nodes)
                if cluster.trace is not None
                else None
            ),
        }
        return blob

    def merge_keeping_extras(config, blobs, wall_s):
        extras.extend(blob.pop("lyrabench") for blob in blobs)
        return merge(config, blobs, wall_s)

    shard._consolidate = consolidate_with_extras
    shard._merge = merge_keeping_extras
    if tracer is not None:
        # Span tracing is process-local, so ``run_sharded`` refuses
        # ``config.tracing``; install it on each worker's cluster instead.
        from repro.harness.cluster import LyraCluster
        from repro.metrics.tracelog import install_lyra_tracing

        init = LyraCluster.__init__

        def init_with_tracing(self, config, **kwargs):
            init(self, config, **kwargs)
            if self.local_pids is not None:
                self.trace = install_lyra_tracing(self)

        LyraCluster.__init__ = init_with_tracing
    return extras


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="epoch seconds at which the parent spawned this interpreter",
    )
    parser.add_argument(
        "--horizon-ms", type=int, default=None,
        help="override the run horizon (the gate calibration uses this)",
    )
    args = parser.parse_args(argv)

    from repro.harness.factory import build_cluster
    from repro.sim.shard import digest_outputs, run_sharded

    from lyrabench import gate, workloads
    from lyrabench.layers import LayerTracer, proposer_phase_samples

    workload = workloads.WORKLOADS[args.workload]
    offsets = workloads.generate_offsets(workload, args.seed, args.part)
    generated = sum(len(o) for o in offsets)
    traced = args.mode == "traced"
    tracer = LayerTracer().install() if traced else None
    config = workloads.build_config(
        workload,
        args.seed,
        args.part,
        offsets,
        horizon_ms=args.horizon_ms,
        tracing=traced and not workload.shards,
    )
    cluster = None
    build_s = None
    if not workload.shards:
        start = time.perf_counter()
        cluster = build_cluster(config)
        build_s = time.perf_counter() - start
    setup_s = time.time() - args.spawned_at
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "part": args.part,
        "mode": args.mode,
        "setup_s": setup_s,
        "build_s": build_s,
    }
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    extras = _install_shard_hooks(tracer) if workload.shards else None
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    if workload.shards:
        sharded = run_sharded(config, workload.shards)
        run_s = time.perf_counter() - start
        result = sharded.result
        outputs = sharded.outputs
        submitted = sum(e["submitted"] for e in extras)
        decided: Dict[bytes, int] = {}
        perceived: Dict[int, Dict[bytes, int]] = {}
        for e in extras:
            decided.update(e["lemma2"][0])
            perceived.update(e["lemma2"][1])
        loop_cpu = sharded.worker_loop_cpu_s
        record["shard"] = {
            "workers": sharded.plan.n_shards,
            "barriers": sharded.barriers,
            "frames_exchanged": sharded.frames_exchanged,
            "worker_loop_cpu_s": loop_cpu,
        }
    else:
        result = cluster.run()
        run_s = time.perf_counter() - start
        outputs = {node.pid: node.output_sequence() for node in cluster.nodes}
        submitted = sum(c.stats.submitted for c in cluster.clients)
        decided, perceived = gate.lemma2_inputs(cluster.nodes)

    record.update(
        {
            "run_s": run_s,
            "loop_s": result.sim_wall_s,
            "virtual_s": config.duration_us / 1e6,
            "generated": generated,
            "submitted": submitted,
            "committed": result.committed_count,
            "executed": result.executed_total,
            "latencies_us": sorted(result.latencies_us),
            "peak_rss_mb": _peak_rss_mb(include_children=bool(workload.shards)),
            "digest": digest_outputs(outputs),
            "prefixes": _prefixes(outputs),
            "gate": gate.check_run(
                outputs,
                safety_violation=result.safety_violation,
                invariant_violations=result.invariant_violations,
                submitted=submitted,
                generated=generated,
                decided=decided,
                perceived=perceived,
                lambda_us=config.lambda_us,
            ),
            "counters": {
                "events": result.events_processed,
                "messages_delivered": result.messages_delivered,
                "bytes_delivered": result.bytes_delivered,
                "rejected_instances": result.rejected_instances,
                "invariant_checks": result.invariant_checks,
                "fault_stats": result.fault_stats,
            },
        }
    )
    if cluster is not None:
        caches = [cluster.registry.verify_cache_stats()]
    else:
        caches = [e["verify_cache"] for e in extras]
    record["counters"]["verify_hits"] = sum(c["hits"] for c in caches)
    record["counters"]["verify_misses"] = sum(c["misses"] for c in caches)
    if tracer is not None:
        if workload.shards:
            from lyrabench.layers import merge

            record["layers"] = merge([e["trace"] for e in extras])
            phases: Dict[str, List[int]] = {}
            for e in extras:
                for phase, values in e["phases"].items():
                    phases.setdefault(phase, []).extend(values)
        else:
            record["layers"] = tracer.snapshot()
            phases = proposer_phase_samples(cluster.trace, range(workload.n))
        record["phases_us"] = phases
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
