"""Host-speed reference: a fixed cold-start task timed next to every run.

The development host's speed drifts with its neighbours' load, by up to
1.7× within minutes, and every wall time drifts with it.  ``run.py``
times this module in a fresh interpreter before each run; the wall-time
metrics are rescaled by the median of those times (see ``report.py``).

The task does what a run's set-up does, which tracked the drift closely:
start an interpreter, import modules (the standard library and numpy,
never the program) and build and drain a heap of Python objects.  It
does not change when the program changes, so a change to the program
moves the rescaled metrics by as much as it moves the raw ones.

    python3 -m lyrabench.reference
"""

from __future__ import annotations

import heapq

#: Seconds the task takes on the development host in a typical spell;
#: the rescaled metrics read as wall time on a host that runs the task
#: in exactly this long.
NOMINAL_S = 0.4


def task() -> int:
    import argparse  # noqa: F401
    import asyncio  # noqa: F401
    import csv  # noqa: F401
    import dataclasses  # noqa: F401
    import decimal  # noqa: F401
    import difflib  # noqa: F401
    import email.parser  # noqa: F401
    import fractions  # noqa: F401
    import http.client  # noqa: F401
    import json
    import logging  # noqa: F401
    import statistics  # noqa: F401
    import tarfile  # noqa: F401
    import unittest  # noqa: F401
    import xml.dom.minidom  # noqa: F401
    import zipfile  # noqa: F401

    import numpy

    keys = numpy.random.default_rng(1).integers(0, 1 << 30, size=40_000).tolist()
    table: dict = {}
    for i, k in enumerate(keys):
        table.setdefault(k % 13_001, []).append((k, i, str(k)))
    heap = [(len(v), k) for k, v in table.items()]
    heapq.heapify(heap)
    total = 0
    while heap:
        n, k = heapq.heappop(heap)
        total += n + len(json.dumps(table[k][:2]))
    return total


if __name__ == "__main__":
    task()
