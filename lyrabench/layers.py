"""Per-layer self time and call counts, recorded from outside the program.

:class:`LayerTracer` replaces methods of the program's classes with
timing wrappers before the cluster is built.  Each wrapped call is a
span; its *self time* is its duration minus the time covered by wrapped
calls nested inside it, and is billed to the layer that owns the method.
Code that is not wrapped (helpers, lambdas, hashing) bills to the
nearest wrapped caller, so the self times of all layers add up to the
time covered by the outermost spans.

Only the traced run installs the wrappers; end-to-end numbers always
come from untraced runs.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

#: ``(layer, module, class, methods)``; ``"*"`` wraps every plain method
#: the class itself defines (dunders excluded).
WRAP_TABLE: Sequence[Tuple[str, str, str, Tuple[str, ...]]] = (
    ("sim", "repro.sim.engine", "Simulator",
     ("run", "schedule", "schedule_at", "schedule_light", "schedule_block")),
    ("sim", "repro.sim.process", "SimProcess", ("*",)),
    ("sim", "repro.sim.process", "CpuModel", ("*",)),
    ("net", "repro.net.network", "Network", ("*",)),
    ("net", "repro.net.latency", "GeoLatencyModel", ("*",)),
    ("net", "repro.net.bandwidth", "BandwidthModel", ("*",)),
    ("net", "repro.net.bandwidth", "NicQueue", ("*",)),
    ("net.reliable", "repro.net.reliable", "ReliableLayer", ("*",)),
    ("net.faults", "repro.net.faults", "FaultInjector", ("*",)),
    ("core.node", "repro.core.node", "LyraNode", ("*",)),
    ("core.vvb", "repro.core.vvb", "VvbInstance", ("*",)),
    ("core.dbft", "repro.core.dbft", "BinaryConsensus", ("*",)),
    ("core.dbft", "repro.core.bv_broadcast", "BinaryValueBroadcast", ("*",)),
    ("core.commit", "repro.core.commit", "CommitState", ("*",)),
    ("crypto", "repro.crypto.signatures", "KeyRegistry", ("*",)),
    ("crypto", "repro.crypto.signatures", "Signer", ("*",)),
    ("crypto", "repro.crypto.threshold", "ThresholdScheme", ("*",)),
    ("crypto", "repro.crypto.threshold", "ThresholdSigner", ("*",)),
    ("crypto", "repro.core.obfuscation", "VssObfuscation", ("*",)),
    ("workload.client", "repro.workload.clients", "_BaseClient", ("*",)),
    ("workload.client", "repro.workload.clients", "ArrivalClient", ("*",)),
    ("metrics.watchdog", "repro.metrics.invariants", "InvariantWatchdog", ("*",)),
)


class LayerTracer:
    """Installs the wrappers of :data:`WRAP_TABLE` and accumulates
    per-layer self seconds and per-method call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Sum of the return values of ``Network.broadcast`` (fan-out).
        self.broadcast_dsts = 0
        # Children time of the open spans; slot 0 collects root spans.
        self._stack: List[float] = [0.0]

    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        for layer, module, cls_name, methods in WRAP_TABLE:
            cls = getattr(importlib.import_module(module), cls_name)
            names = (
                [n for n in vars(cls) if not n.startswith("__")]
                if methods == ("*",)
                else list(methods)
            )
            for name in names:
                fn = vars(cls).get(name)
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    self._wrap(cls, name, fn, layer)
        return self

    def _wrap(self, cls: type, name: str, fn, layer: str) -> None:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        key = f"{cls.__name__}.{name}"
        clock = time.perf_counter
        # ``Network.broadcast`` returns its fan-out, the send count behind
        # ``net.delivered_per_sent``.
        fanout = self if key == "Network.broadcast" else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = stack.pop()
                stack[-1] += spent
                self_s[layer] += spent - inner
                calls[key] += 1
            if fanout is not None:
                fanout.broadcast_dsts += result or 0
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(cls, name, wrapper)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (e.g. cluster build)."""
        self.self_s.clear()
        self.calls.clear()
        self.broadcast_dsts = 0
        self._stack[:] = [0.0]

    def snapshot(self) -> Dict[str, object]:
        """Plain-data tallies (picklable, mergeable with :func:`merge`)."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "broadcast_dsts": self.broadcast_dsts,
            "covered_s": self._stack[0],
        }


def merge(snapshots: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Sum tallies from several processes (the sharded run's workers)."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    broadcast_dsts = 0
    covered = 0.0
    for snap in snapshots:
        for layer, seconds in snap["self_s"].items():
            self_s[layer] += seconds
        calls.update(snap["calls"])
        broadcast_dsts += snap["broadcast_dsts"]
        covered += snap["covered_s"]
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "broadcast_dsts": broadcast_dsts,
        "covered_s": covered,
    }


def proposer_phase_samples(log, proposers) -> Dict[str, List[int]]:
    """Virtual phase durations (µs) of every instance proposed by one of
    ``proposers``, measured at its proposer (the client-visible view
    ``repro.metrics.spans.decompose_phases`` also takes)."""
    samples: Dict[str, List[int]] = defaultdict(list)
    proposers = set(proposers)
    for iid in log.instances():
        if iid[0] in proposers:
            for phase, dur in log.phase_durations_us(iid, iid[0]).items():
                samples[phase].append(dur)
    return dict(samples)
