"""Open-loop Lyra benchmark: wall cost per committed transaction.

Run from the root of a checkout::

    python3 lyrabench/run.py --workload lyra-n4-dense --seed 1 --seconds 40 --trace 0
    python3 lyrabench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the seed's parts (independent inputs) in turn, each
run in a fresh interpreter, for about ``--seconds``, and reports the
end-to-end metrics pooled over the parts; a part's wall time is the
median of its repeats.  Before each run it times the host-speed
reference (``lyrabench/reference.py``), by whose median the wall-time
metrics are rescaled.  ``--trace 1`` makes one untraced and
one traced run and reports the per-layer metrics.  Every run must pass
the correctness gate (``lyrabench/gate.py``).  The last line of standard
output is one JSON object; a readable table goes to standard error.
Run records are stored under ``lyrabench/results/<host fingerprint>/``.
See ``lyrabench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
#: Setup samples per invocation at least (extra setup-only runs top up).
MIN_SETUP_SAMPLES = 5
#: Never plan runs past this much wall time (the whole invocation must
#: end within 180 s).
HARD_BUDGET_S = 120.0
RUN_TIMEOUT_S = 120.0


class RunFailed(RuntimeError):
    pass


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # A fixed string-hash seed gives every run the same dict and set
    # layouts, which removes one source of run-to-run timing spread.
    env["PYTHONHASHSEED"] = "0"
    return env


def time_reference() -> float:
    """Wall seconds of ``lyrabench.reference`` in a fresh interpreter."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lyrabench.reference"], cwd=ROOT, env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"reference task exceeded {RUN_TIMEOUT_S:.0f} s")
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RunFailed(f"reference task exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return elapsed


def spawn(
    workload: str, seed: int, part: int, mode: str, horizon_ms: int | None = None
) -> Dict[str, Any]:
    """Run ``lyrabench.single`` in a fresh interpreter; return its record."""
    env = _env()
    cmd = [
        sys.executable, "-m", "lyrabench.single", "--workload", workload,
        "--seed", str(seed), "--part", str(part), "--mode", mode,
    ]
    if horizon_ms is not None:
        cmd += ["--horizon-ms", str(horizon_ms)]
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The session holds the run and any shard workers it forked.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{workload} {mode} run exceeded {RUN_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise RunFailed(f"{workload} {mode} run exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _stored(record: Dict[str, Any]) -> Dict[str, Any]:
    """A run record as stored: raw latencies replaced by their summary."""
    from lyrabench.report import latency_summary

    kept = {k: v for k, v in record.items() if k not in ("latencies_us", "phases_us")}
    if "latencies_us" in record:
        kept["latency"] = latency_summary(record["latencies_us"])
    return kept


def measure(workload, seed: int, seconds: int) -> Dict[str, Any]:
    """Untraced runs of the seed's parts, in turn, for about ``seconds``
    (every part runs at least once), each after a timing of the reference
    task; end-to-end metrics."""
    from lyrabench.report import end_to_end

    parts = workload.parts
    runs: List[Dict[str, Any]] = []
    reference_samples: List[float] = []
    started = time.monotonic()
    while True:
        reference_samples.append(time_reference())
        runs.append(spawn(workload.name, seed, len(runs) % parts, "run"))
        elapsed = time.monotonic() - started
        # Start another run only if it should end within ``seconds``.
        if len(runs) >= parts and elapsed * (len(runs) + 1) / len(runs) > min(
            seconds, HARD_BUDGET_S
        ):
            break
    setup_samples = [r["setup_s"] for r in runs]
    while len(setup_samples) < MIN_SETUP_SAMPLES:
        part = len(setup_samples) % parts
        setup_samples.append(spawn(workload.name, seed, part, "setup")["setup_s"])
    problems = [(i, g) for i, r in enumerate(runs) for g in r["gate"]]
    for i, r in enumerate(runs[parts:], parts):
        first = runs[i % parts]
        if r["digest"] != first["digest"] or r["latencies_us"] != first["latencies_us"]:
            problems.append((i, f"differs from run {i % parts} on the same input"))
    return {
        "runs": runs,
        "setup_samples": setup_samples,
        "reference_samples": reference_samples,
        "problems": problems,
        "metrics": {} if problems else end_to_end(runs, setup_samples, reference_samples),
    }


def trace(workload, seed: int) -> Dict[str, Any]:
    """One untraced and one traced run of part 0; per-layer metrics."""
    from lyrabench.report import per_layer

    plain = spawn(workload.name, seed, 0, "run")
    traced = spawn(workload.name, seed, 0, "traced")
    runs = [plain, traced]
    problems = [(i, g) for i, r in enumerate(runs) for g in r["gate"]]
    if traced["digest"] != plain["digest"]:
        problems.append((1, "traced run decided a different prefix than the untraced run"))
    return {
        "runs": runs,
        "problems": problems,
        "metrics": {} if problems else per_layer(plain, traced),
    }


def invocation(name: str, seed: int, seconds: int, traced: bool) -> Dict[str, Any]:
    from lyrabench import host, workloads

    workload = workloads.WORKLOADS[name]
    outcome = trace(workload, seed) if traced else measure(workload, seed, seconds)
    block = host.host_block()
    stored = {
        "manifest": {
            "workload": name,
            "seed": seed,
            "trace": int(traced),
            "seconds": seconds,
            "git_rev": host.git_rev(ROOT),
            "src_sha256": host.source_sha256(ROOT),
            "host": block,
            "started_unix": time.time(),
        },
        "workload": workload.__dict__,
        "offsets_us": [
            workloads.generate_offsets(workload, seed, part)
            for part in range(workload.parts)
        ],
        "runs": [_stored(r) for r in outcome["runs"]],
        "setup_samples": outcome.get("setup_samples"),
        "reference_samples": outcome.get("reference_samples"),
        "problems": outcome["problems"],
        "metrics": outcome["metrics"],
    }
    out_dir = ROOT / "lyrabench" / "results" / block["fingerprint"] / name
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    outcome["record_path"] = str(path.relative_to(ROOT))
    return outcome


def _print_table(name: str, outcome: Dict[str, Any]) -> None:
    print(f"# {name}  ({len(outcome['runs'])} runs, record {outcome['record_path']})",
          file=sys.stderr)
    for metric, entry in outcome["metrics"].items():
        print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
    for index, problem in outcome["problems"]:
        mode = outcome["runs"][index]["mode"]
        print(f"  GATE FAILED ({mode} run {index}): {problem}", file=sys.stderr)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"lyrabench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from lyrabench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"lyrabench: unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    results = {}
    for name in names:
        try:
            outcome = invocation(name, args.seed, args.seconds, bool(args.trace))
        except RunFailed as exc:
            print(f"lyrabench: {exc}", file=sys.stderr)
            return 1
        _print_table(name, outcome)
        results[name] = outcome
    failed = sum(len({i for i, _ in o["problems"]}) for o in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": sum(len(o["runs"]) for o in results.values()),
        "failed": failed,
        "metrics": (
            results[names[0]]["metrics"]
            if len(names) == 1
            else {f"{n}/{m}": v for n, o in results.items() for m, v in o["metrics"].items()}
        ),
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
