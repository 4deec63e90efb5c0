"""Run provenance: host fingerprint, git revision, source hash."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_block() -> Dict[str, Any]:
    """What makes timings comparable: CPU model, core count, Python and
    numpy versions.  ``fingerprint`` hashes them; results from hosts
    with different fingerprints are stored apart and never compared."""
    import numpy

    block: Dict[str, Any] = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    canonical = json.dumps(block, sort_keys=True).encode()
    block["fingerprint"] = hashlib.sha256(canonical).hexdigest()[:16]
    return block


def git_rev(root: Path) -> Optional[str]:
    """``HEAD`` of the checkout, or ``None`` when ``root`` is not itself
    a git work tree (git is not allowed to search parent directories)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256(root: Path) -> str:
    """Hash of the program's Python sources, which identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
