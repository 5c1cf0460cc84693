"""Region event tracing: a versioned JSONL record of one execution.

The :class:`RegionTracer` is the bridge between the region runtime and
the observability stack.  :class:`~repro.runtime.pool.RegionRuntime`
calls :meth:`RegionTracer.emit` at every mutating entry point; the
tracer keeps the events in memory (for the trace-replay simulator),
optionally appends them to a PR 5 :class:`~repro.obs.events.EventLog`
JSONL file (``--trace-out``), and publishes lifecycle events on the one
observation path (:mod:`repro.obs.observe`), where the span tracer turns
them into Chrome-trace instants that render alongside analysis spans in
``chrome://tracing``.

Event kinds (all prefixed ``region.``):

* ``create`` / ``subregion`` -- region created (under root / a parent);
* ``alloc`` -- object allocated (region, size, site, ``file:line``);
* ``access`` -- a slot load/store (obj, offset, pointee target);
* ``delete`` / ``clear`` -- a destroy/clear request entered;
* ``reclaim`` -- one region's reclamation began (carries the RC
  external-reference count at that instant);
* ``cleanup`` -- one cleanup callback is about to run (APR semantics:
  *during* reclamation, so cleanups can re-enter the runtime);
* ``free`` -- one object's storage died;
* ``dead`` -- a region was marked dead;
* ``reclaimed`` -- the whole delete/clear request finished;
* ``fault`` -- the runtime logged a :class:`~repro.runtime.pool.Fault`.

Only lifecycle kinds are published: accesses, allocations and frees
dominate event volume, and the instant lane is for lifecycle shape, not
a per-access firehose.  The JSONL stream gets everything.

Trace files start with a ``trace.open`` header carrying
:data:`TRACE_SCHEMA_VERSION`; bump it when the record shape changes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs import observe

__all__ = ["RegionTracer", "TRACE_SCHEMA_VERSION", "load_trace"]

#: Bump when the event record shape changes (replay keys on this).
TRACE_SCHEMA_VERSION = 1

#: Kinds published to the installed observers (lifecycle only).
_LIFECYCLE_KINDS = frozenset(
    {
        "region.create",
        "region.subregion",
        "region.delete",
        "region.clear",
        "region.reclaimed",
        "region.fault",
    }
)


class RegionTracer:
    """Collects region events in memory and/or streams them to a log.

    ``log`` is an optional :class:`~repro.obs.events.EventLog` sink;
    ``keep=False`` disables the in-memory list for pure streaming runs
    (the replay simulator needs ``keep=True``, the default).
    """

    def __init__(self, log: Optional[object] = None, keep: bool = True) -> None:
        self.log = log
        self.keep = keep
        self.records: List[Dict[str, Any]] = []
        self.emit("trace.open", schema=TRACE_SCHEMA_VERSION)

    def emit(self, kind: str, **fields: Any) -> None:
        record: Dict[str, Any] = {"kind": kind}
        record.update(fields)
        if self.keep:
            self.records.append(record)
        if self.log is not None:
            self.log.emit(kind, **fields)
        if kind in _LIFECYCLE_KINDS:
            observe.event(kind, **fields)

    def __len__(self) -> int:
        return len(self.records)


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into replayable event records.

    Keeps ``region.*`` and ``trace.*`` records (EventLog bookkeeping
    such as ``log.open`` is dropped) in file order, which — because the
    tracer is single-threaded per execution — is event order.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind", "")
            if kind.startswith("region.") or kind.startswith("trace."):
                records.append(record)
    return records
