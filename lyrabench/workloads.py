"""Workload catalogue and seeded open-loop input generation.

Every workload is Lyra at the paper's §VI defaults (three regions,
λ = 5 ms).  The benchmark, not the program, generates the offered load:
from ``(input, seed, part)`` it draws the arrival times of every node and
hands the cluster a :class:`~repro.workload.spec.WorkloadSpec` made of
``TraceArrivals`` groups, one per node.  Submissions stop ``drain_ms``
before the horizon, so every transaction either commits or is counted as
lost.  ``lyrabench/README.md`` says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

MS = 1_000
#: The most parts a workload may have; keeps ``sim_seed`` one-to-one.
MAX_PARTS = 4
WARMUP_ROUNDS = 2
WARMUP_SPACING_US = 150 * MS


@dataclass(frozen=True)
class Workload:
    name: str
    #: Workloads with the same ``input`` draw the same arrivals per seed.
    input: str
    n: int
    batch_size: int
    rate_tps_per_node: float
    horizon_ms: int
    drain_ms: int
    #: Independent inputs ("parts") one seed stands for.  Pooling them
    #: keeps one seed's figures from hinging on a single input's luck;
    #: the chaos workload's outcome varies most from input to input.
    parts: int = 2
    chaos: bool = False
    #: Worker processes for ``repro.sim.shard.run_sharded`` (0: in-process).
    shards: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.parts <= MAX_PARTS:
            raise ValueError(f"{self.name}: parts must be in 1..{MAX_PARTS}")


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lyra-n32-sparse", "n32-sparse", 32, 50, 2.0, 1800, 1000),
        Workload("lyra-n4-dense", "n4-dense", 4, 100, 800.0, 4000, 800),
        Workload(
            "lyra-n4-chaos", "n4-chaos", 4, 8, 25.0, 5000, 1500, parts=4, chaos=True
        ),
        Workload(
            "lyra-n32-sharded", "n32-sparse", 32, 50, 2.0, 1800, 1000, shards=2
        ),
    )
}


def client_start_us() -> int:
    """When clients start: after the distance warm-up (§IV-B1)."""
    from repro.core.node import warmup_duration_us

    return warmup_duration_us(WARMUP_ROUNDS, WARMUP_SPACING_US)


def sim_seed(seed: int, part: int) -> int:
    """The simulation seed of one part of a benchmark seed."""
    return seed * MAX_PARTS + part


def generate_offsets(workload: Workload, seed: int, part: int) -> List[List[int]]:
    """Per-node Poisson submission offsets (µs after client start).

    A pure function of ``(workload.input, seed, part)``.  The run's arrivals
    are a Poisson process of rate ``rate_tps_per_node * n`` conditioned
    on its expected count: that many uniform times in the submission
    window, each sent to a uniformly drawn node.  Fixing the count keeps
    the work per run, and so the per-transaction cost, comparable across
    seeds.  The window closes ``drain_ms`` before the horizon.
    """
    window_us = submit_window_us(workload)
    count = round(workload.rate_tps_per_node * workload.n * window_us / 1e6)
    tag = int.from_bytes(hashlib.sha256(workload.input.encode()).digest()[:8], "big")
    rng = np.random.default_rng([seed, part, tag])
    times = rng.integers(0, window_us, size=count)
    homes = rng.integers(0, workload.n, size=count)
    out: List[List[int]] = [[] for _ in range(workload.n)]
    for t, pid in zip(times.tolist(), homes.tolist()):
        out[pid].append(t)
    for offsets in out:
        offsets.sort()
    return out


def submit_window_us(workload: Workload) -> int:
    """Length of the submission window: client start to drain start."""
    window_us = (workload.horizon_ms - workload.drain_ms) * MS - client_start_us()
    if window_us <= 0:
        raise ValueError(f"{workload.name}: no submission window")
    return window_us


def chaos_plan():
    """The CI chaos plan: lossy links plus one crash/recover of pid 2.

    The same plan as the ``chaos_smoke`` cell of ``repro.bench.suite``,
    written out here so the benchmark's input cannot change with it.
    """
    from repro.net.faults import CrashEvent, FaultPlan, LinkFault

    return FaultPlan(
        links=(LinkFault(drop_rate=0.15, duplicate_rate=0.05, corrupt_rate=0.02),),
        crashes=(CrashEvent(pid=2, crash_at_us=2000 * MS, recover_at_us=3000 * MS),),
    )


def build_config(
    workload: Workload,
    seed: int,
    part: int,
    offsets: List[List[int]],
    *,
    horizon_ms: Optional[int] = None,
    tracing: bool = False,
):
    """The ``ExperimentConfig`` the program receives: §VI defaults plus
    the generated ``TraceArrivals`` groups, nothing else."""
    from repro.harness.config import ExperimentConfig
    from repro.workload.spec import ClientGroup, WorkloadSpec

    groups = tuple(
        ClientGroup(
            name=f"node{pid}",
            client="arrival",
            count=1,
            home=pid,
            arrival={"kind": "trace", "offsets_us": list(times)},
        )
        for pid, times in enumerate(offsets)
    )
    return ExperimentConfig(
        n_nodes=workload.n,
        seed=sim_seed(seed, part),
        batch_size=workload.batch_size,
        duration_us=(horizon_ms or workload.horizon_ms) * MS,
        warmup_rounds=WARMUP_ROUNDS,
        warmup_spacing_us=WARMUP_SPACING_US,
        workload=WorkloadSpec(groups=groups, fairness=False),
        fault_plan=chaos_plan() if workload.chaos else None,
        reliable_channels=workload.chaos,
        tracing=tracing,
    )
