"""A structured JSONL event log for RegionWiz runs (``--events PATH``).

The span tracer (:mod:`repro.obs.trace`) answers "where did the time
go?" after the fact; the event log answers "what happened, in order?"
as a machine-parseable stream.  One JSON record per line, one line per
event:

* ``phase.start`` / ``phase.end`` -- each pipeline phase, per unit
  (derived from the ``phase.*`` spans: one pair per span, with the
  span's ``unit`` and, on the end record, its ``duration_ms``);
* ``ladder.degrade`` -- a degradation-ladder rung blew its budget;
* ``budget.trip`` -- the cooperative checkpoint that detected it
  (resource, limit, used, phase);
* ``cache.hit`` / ``cache.miss`` -- persistent-cache probes;
* ``batch.unit`` -- one unit's final outcome in a sweep;
* ``warning`` -- one warning emitted (fingerprint, rank, unit);
* ``incremental.probe`` / ``.update`` / ``.cold`` / ``.fallback`` /
  ``.serve`` -- what an incremental session did with a unit (see
  :mod:`repro.tool.incremental`);
* supervisor events (see :mod:`repro.tool.supervise`):
  ``supervisor.worker-lost`` (a pool worker died with the unit in
  flight), ``supervisor.respawn`` (fresh pool after backoff),
  ``supervisor.watchdog-kill`` (unit SIGKILLed past the hard
  deadline), ``supervisor.bisect`` / ``supervisor.quarantine``
  (poison-pill isolation), ``supervisor.journal-recovered`` (outcome
  adopted from the run journal instead of re-run),
  ``supervisor.gave-up`` (respawn budget exhausted),
  ``supervisor.interrupted`` / ``batch.interrupted`` (SIGINT/SIGTERM
  drain), and ``journal.replay`` (a ``--resume`` run adopted a
  completed outcome).

Every record carries a monotonic per-process sequence number (``seq``),
the emitting ``pid``, and a timestamp (``t_ms``) measured against the
same epoch convention the tracer uses: ``time.perf_counter`` relative to
a pinned zero.  The parallel batch executor ships the parent's epoch to
each worker, so worker events land on the parent's timeline and a
global, causally consistent ordering is just ``sort by (t_ms, pid,
seq)``.  Workers append to the same file; each record is written as a
single short ``write()`` of one line, so concurrent appends interleave
at line granularity.

The log is an observer (see :mod:`repro.obs.observe`): it consumes
exactly the event kinds above (:attr:`EventLog.events`) and the
``phase.*`` spans, so instrumentation sites emit through
``observe.event`` unconditionally and pay one global read when no
observer is installed.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

from repro.obs.observe import Observer, Span

__all__ = ["EventLog"]

#: Bump when the record shape changes (consumers key on this).
EVENT_SCHEMA_VERSION = 1


class EventLog(Observer):
    """An append-only JSONL event sink bound to one file.

    ``append=False`` (the parent process) truncates the file and writes
    a ``log.open`` header record carrying the schema version and epoch;
    workers open with ``append=True`` and the parent's ``epoch`` so
    their timestamps share the parent's time zero.  An appending log
    opens its file at its first record, so an unused one is picklable.
    """

    spans = ("phase.*",)
    events = (
        "ladder.degrade",
        "budget.trip",
        "cache.hit",
        "cache.miss",
        "batch.unit",
        "batch.interrupted",
        "warning",
        "incremental.*",
        "supervisor.*",
        "journal.replay",
    )

    def __init__(
        self,
        path: str,
        epoch: Optional[float] = None,
        append: bool = False,
        run_id: Optional[str] = None,
    ) -> None:
        self.path = str(path)
        self._epoch = time.perf_counter() if epoch is None else epoch
        self._seq = 0
        self.run_id = run_id
        self._handle = None
        if not append:
            open(self.path, "w").close()  # truncate the previous log
            header: Dict[str, Any] = {
                "schema": EVENT_SCHEMA_VERSION,
                "epoch": round(self._epoch, 6),
            }
            if run_id is not None:
                header["run_id"] = run_id
            self.emit("log.open", **header)

    @property
    def epoch(self) -> float:
        """The ``perf_counter`` reading this log calls time zero."""
        return self._epoch

    def emit(self, kind: str, **fields: Any) -> None:
        """Write one event record (a single JSONL line)."""
        self._seq += 1
        record: Dict[str, Any] = {
            "seq": self._seq,
            "t_ms": round((time.perf_counter() - self._epoch) * 1000.0, 3),
            "pid": os.getpid(),
            "kind": kind,
        }
        record.update(fields)
        if self._handle is None:
            # Everyone -- parent included -- writes in O_APPEND mode: an
            # append-mode write always lands at the current end of file,
            # so the parent's offset can never clobber lines workers
            # appended meanwhile.  Line buffering keeps each record a
            # single write.
            self._handle = open(self.path, "a", buffering=1)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()

    # -- the observer side -------------------------------------------------

    def on_open(self, span: Span) -> None:
        self.emit(
            "phase.start",
            phase=span.name[len("phase."):],
            unit=span.attrs.get("unit"),
        )

    def on_close(self, span: Span) -> None:
        self.emit(
            "phase.end",
            phase=span.name[len("phase."):],
            unit=span.attrs.get("unit"),
            duration_ms=round((span.end - span.start) * 1000.0, 3),
        )

    def on_event(self, kind: str, fields: Dict[str, Any]) -> None:
        self.emit(kind, **fields)

    def for_worker(self) -> "EventLog":
        """An appending log on this one's file and timeline."""
        return EventLog(self.path, epoch=self._epoch, append=True)

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
