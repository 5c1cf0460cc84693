"""What each per-layer metric of the traced run should move.

Layers are named after the modules of ``src/repro``.  ``MOVES`` records,
for each layer, which end-to-end metric a change to that layer should
move and on which workload; a workload not listed for a layer is one the
layer's changes should leave unchanged.  The metric names, units and
directions themselves are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and every metric's name and unit."""
    with open(SPEC_PATH) as handle:
        return json.load(handle)


#: Metric-name prefix -> ``[(end-to-end metric, workload), ...]``.
MOVES = {
    "lang.": [
        ("kloc_per_s", "cold-sweep"),
        ("kloc_per_s", "parallel-sweep"),
        ("edit_p50_s", "incremental-edit"),  # slightly: the edited unit
    ],
    "ir.": [("kloc_per_s", "cold-sweep")],
    "callgraph.": [("kloc_per_s", "cold-sweep")],
    "pointer.": [
        ("kloc_per_s", "cold-sweep"),
        ("edit_tail_s", "incremental-edit"),
    ],
    "core.": [("kloc_per_s", "cold-sweep")],
    # The Datalog solve is 4-6% of the incremental cold pass at every
    # scale up to 0.3, and its delta update about 2% of the warm
    # re-runs; both are below those metrics' run-to-run spread.
    # Datalog changes are judged by ``datalog.solve_s`` and the waste
    # counters of the traced run instead.
    "datalog.": [],
    "tool.": [("edit_p50_s", "incremental-edit")],
    "cache.": [("edit_p50_s", "incremental-edit")],
    "incremental.": [("edit_p50_s", "incremental-edit")],
    "batch.": [("kloc_per_s", "parallel-sweep")],
    "trace.": [],  # properties of the traced run itself
}


def moves(name: str):
    """The ``(end-to-end metric, workload)`` pairs ``name`` should move."""
    for prefix, targets in MOVES.items():
        if name.startswith(prefix):
            return targets
    raise KeyError(name)
