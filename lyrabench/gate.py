"""The per-run correctness gate.

A run passes only if every check below holds; an empty decided prefix
fails, so a run that decides nothing can never pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.smr import check_lower_bounded, check_output_sorted

Output = Sequence[Tuple[int, bytes]]


def check_run(
    outputs: Dict[int, Output],
    *,
    safety_violation: Optional[str],
    invariant_violations: Sequence[str],
    submitted: int,
    generated: int,
    decided: Dict[bytes, int],
    perceived: Dict[int, Dict[bytes, int]],
    lambda_us: int,
) -> List[str]:
    """Every failed check of one run, as readable lines (empty = pass).

    ``outputs`` are the decided prefixes of the correct nodes; ``decided``
    and ``perceived`` feed Lemma 2 (lower-bounded sequence numbers) the
    way the repository's property tests feed it.
    """
    failures: List[str] = []
    if safety_violation is not None:
        failures.append(f"safety violation: {safety_violation}")
    failures.extend(f"watchdog: {v}" for v in invariant_violations)
    if not outputs:
        failures.append("no correct node reported a decided prefix")
    longest: Output = max(outputs.values(), key=len, default=())
    for pid in sorted(outputs):
        out = list(outputs[pid])
        if not out:
            failures.append(f"pid {pid}: empty decided prefix")
        elif out != list(longest[: len(out)]):
            failures.append(f"pid {pid}: decided prefix diverges from the longest")
        err = check_output_sorted(out)
        if err is not None:
            failures.append(f"pid {pid}: {err}")
    failures.extend(
        f"lemma 2: {v}" for v in check_lower_bounded(decided, perceived, lambda_us)
    )
    if submitted != generated:
        failures.append(
            f"submitted {submitted} transactions, generated {generated}"
        )
    return failures


def lemma2_inputs(nodes) -> Tuple[Dict[bytes, int], Dict[int, Dict[bytes, int]]]:
    """``(decided, perceived)`` of ``nodes`` for :func:`check_run`."""
    decided: Dict[bytes, int] = {}
    for node in nodes:
        for entry in node.commit.output_log:
            decided[entry.cipher_id] = entry.seq
    perceived = {node.pid: dict(node.perceived._perceived) for node in nodes}
    return decided, perceived
