"""Hierarchical span tracing for the RegionWiz pipeline.

A :class:`Tracer` is the observer (see :mod:`repro.obs.observe`) that
records every span as a tree of timed records -- pipeline phases,
degradation-ladder attempts, Datalog strata and rule evaluations, batch
units -- each carrying wall time, the peak-RSS delta observed across the
span, and arbitrary counter attributes.  A few events become zero-length
instants under the open span: cache and manifest hits, fault firings,
and region lifecycle events from the runtime (:attr:`Tracer.events`).
The tree exports to

* Chrome ``trace_event`` JSON (:meth:`Tracer.to_chrome_trace` /
  :meth:`Tracer.write_chrome_trace`), loadable in ``chrome://tracing``
  and Perfetto (CLI: ``--trace out.json``);
* an indented text profile (:meth:`Tracer.format_tree`, CLI:
  ``--profile``).

Install one for a run with ``observe.observing(Tracer())``.  Batch
sweeps reuse one tracer across units, each unit under its own
``batch.unit`` span; pool workers record into a fresh tracer on the
parent's epoch (:meth:`Tracer.for_worker`) whose roots the parent adopts
as one lane per worker.

Peak RSS is read from ``resource.getrusage`` (kilobytes on Linux); it is
monotone, so a span's ``rss_delta_kb`` is the high-water-mark growth
*during* the span -- zero for spans that allocate within already-peaked
memory, which is exactly the signal a capacity investigation wants.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.observe import Observer, Span

__all__ = ["SpanRecord", "Tracer"]

try:
    import resource

    def _peak_rss_kb() -> int:
        """Peak RSS of this process in kB (ru_maxrss unit on Linux)."""
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

except ImportError:  # pragma: no cover - non-POSIX fallback

    def _peak_rss_kb() -> int:
        return 0


@dataclass
class SpanRecord:
    """One node of the span tree (``kind="instant"`` for point events)."""

    name: str
    start_us: float
    end_us: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)
    kind: str = "span"  # 'span' | 'instant'
    rss_before_kb: int = 0
    rss_after_kb: int = 0

    @property
    def duration_ms(self) -> float:
        return (self.end_us - self.start_us) / 1000.0

    @property
    def rss_delta_kb(self) -> int:
        return max(0, self.rss_after_kb - self.rss_before_kb)

    def find(self, name: str) -> List["SpanRecord"]:
        """Every descendant span (depth-first, self included) named ``name``."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found


class Tracer(Observer):
    """Collects one run's span tree; see the module docstring.

    ``epoch`` pins the tracer's time zero to a given ``perf_counter``
    reading.  Pool workers use it (via the parent's :attr:`epoch`) so
    worker-side span timestamps land on the parent's timeline -- on
    Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which is shared
    across processes of one boot, so the lanes line up in Perfetto.
    """

    spans = ("*",)
    events = ("cache.hit", "incremental.serve", "fault", "region.*")

    def __init__(
        self,
        epoch: Optional[float] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self._t0 = time.perf_counter() if epoch is None else epoch
        self.run_id = run_id
        self.roots: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        #: Foreign span lanes adopted from worker processes: (pid, roots).
        self.lanes: List[Tuple[int, List[SpanRecord]]] = []

    @property
    def epoch(self) -> float:
        """The ``perf_counter`` reading this tracer calls time zero."""
        return self._t0

    # -- recording ---------------------------------------------------------

    def _attach(self, record: SpanRecord) -> None:
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self.roots.append(record)

    def on_open(self, span: Span) -> None:
        record = SpanRecord(
            name=span.name,
            start_us=(span.start - self._t0) * 1e6,
            attrs=span.attrs,
            rss_before_kb=_peak_rss_kb(),
        )
        self._attach(record)
        self._stack.append(record)

    def on_close(self, span: Span) -> None:
        # ``with`` unwinds strictly LIFO, including through exceptions.
        record = self._stack.pop()
        record.end_us = (span.end - self._t0) * 1e6
        record.rss_after_kb = _peak_rss_kb()

    def on_event(self, kind: str, fields: Dict[str, Any]) -> None:
        """A zero-duration point event under the current span."""
        now = (time.perf_counter() - self._t0) * 1e6
        record = SpanRecord(
            name=kind, start_us=now, end_us=now, attrs=dict(fields),
            kind="instant",
        )
        self._attach(record)

    def for_worker(self) -> "Tracer":
        """A fresh tracer on this one's timeline, for a pool worker."""
        return Tracer(epoch=self._t0)

    def drain(self) -> List[SpanRecord]:
        """Hand over (and forget) the recorded roots -- a worker ships
        each chunk's spans to the parent this way."""
        roots, self.roots = self.roots, []
        return roots

    def adopt(self, roots: List[SpanRecord], pid: int) -> None:
        """Merge a worker process's span roots as a separate trace lane.

        The parallel batch executor ships each worker unit's recorded
        :class:`SpanRecord` tree back over the pool boundary and adopts
        it here; the Chrome export emits the lane under the worker's
        ``pid`` so per-worker timelines stay distinguishable.
        """
        if not roots:
            return
        for existing_pid, existing_roots in self.lanes:
            if existing_pid == pid:
                existing_roots.extend(roots)
                return
        self.lanes.append((pid, list(roots)))

    # -- queries -----------------------------------------------------------

    def find(self, name: str) -> List[SpanRecord]:
        """Every recorded span/instant named ``name``, depth-first
        (adopted worker lanes included)."""
        found: List[SpanRecord] = []
        for root in self.roots:
            found.extend(root.find(name))
        for _pid, roots in self.lanes:
            for root in roots:
                found.extend(root.find(name))
        return found

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` representation (``B``/``E`` pairs).

        Events come out in depth-first order, so begin/end events nest
        monotonically: every ``E`` closes the most recent open ``B`` --
        the schema ``tests/obs/test_trace.py`` checks.
        """
        pid = os.getpid()
        events: List[Dict[str, Any]] = []

        def emit(record: SpanRecord, pid: int = pid) -> None:
            common = {"name": record.name, "pid": pid, "tid": 1,
                      "cat": record.name.split(".", 1)[0]}
            if record.kind == "instant":
                events.append({
                    **common, "ph": "i", "s": "t",
                    "ts": round(record.start_us, 3),
                    "args": dict(record.attrs),
                })
                return
            events.append({
                **common, "ph": "B", "ts": round(record.start_us, 3),
                "args": dict(record.attrs),
            })
            for child in record.children:
                emit(child, pid)
            events.append({
                **common, "ph": "E", "ts": round(record.end_us, 3),
                "args": {"rss_delta_kb": record.rss_delta_kb},
            })

        for root in self.roots:
            emit(root)
        for worker_pid, roots in self.lanes:
            events.append({
                "ph": "M", "name": "process_name", "pid": worker_pid,
                "tid": 1, "args": {"name": f"regionwiz worker {worker_pid}"},
            })
            for root in roots:
                emit(root, worker_pid)
        trace: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
        }
        if self.run_id is not None:
            trace["metadata"] = {"run_id": self.run_id}
        return trace

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)

    def format_tree(self, min_ms: float = 0.0) -> str:
        """The ``--profile`` text tree: one line per span, indented."""
        lines: List[str] = []

        def render(record: SpanRecord, depth: int) -> None:
            if record.kind == "span" and record.duration_ms < min_ms:
                return
            indent = "  " * depth
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(record.attrs.items())
            )
            if record.kind == "instant":
                lines.append(
                    f"{indent}! {record.name}" + (f"  {attrs}" if attrs else "")
                )
            else:
                rss = (
                    f" +{record.rss_delta_kb}kB"
                    if record.rss_delta_kb else ""
                )
                lines.append(
                    f"{indent}{record.name}  {record.duration_ms:.2f}ms{rss}"
                    + (f"  {attrs}" if attrs else "")
                )
            for child in record.children:
                render(child, depth + 1)

        for root in self.roots:
            render(root, 0)
        for worker_pid, roots in self.lanes:
            lines.append(f"[worker pid={worker_pid}]")
            for root in roots:
                render(root, 1)
        return "\n".join(lines)
