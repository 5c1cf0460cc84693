"""The three workloads: their timed bodies and their correctness checks.

* ``cold-sweep`` -- serial ``run_batch(jobs=1)`` over the whole corpus,
  no cache.  The frontend and the pointer analysis do most of the work;
  Datalog, the cache and the pool do none.  Claim workload for frontend,
  call-graph, pointer and core wins; bypass workload for the rest.
* ``incremental-edit`` -- a cold ``run_batch(cache=..., incremental=True)``
  pass on a fresh cache directory (the Datalog full solve runs here),
  then seeded single-unit edits, each followed by a warm re-run of the
  whole corpus.  The cache, manifest and delta layers do all of the
  warm work.  Those re-run times are the ``edit_*`` metrics.
* ``parallel-sweep`` -- the cold-sweep corpus through the supervised
  ``run_batch(jobs=2)``.  Its analysis work equals cold-sweep's, so the
  executor's cost is the difference between the two.

Only ``incremental-edit`` edits its sources.  The two cache-less
workloads run sweeps alone.
"""

from __future__ import annotations

import gc
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.tool.batch import BatchResult, BatchUnit, UnitOutcome, run_batch

import corpus

WORKLOADS = ("cold-sweep", "incremental-edit", "parallel-sweep")

#: Pool size of ``parallel-sweep``: the cores of the reference machine.
PARALLEL_JOBS = 2


def jobs_of(workload: str) -> int:
    return PARALLEL_JOBS if workload == "parallel-sweep" else 1


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's ``ru_maxrss``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: The edit plan is split into this many parts, each following its own
#: sweep.  An untraced run makes one pass per part, each in its own
#: process, so it pools at least this many hash seeds; the traced run
#: runs all parts in one process.
PARTS = 4


@dataclass
class Sweep:
    kloc: float
    wall: float
    cpu: float
    result: BatchResult


@dataclass
class Body:
    """What one timed body measured."""

    units: List[BatchUnit]
    sweeps: List[Sweep] = field(default_factory=list)
    edit_times: List[float] = field(default_factory=list)
    edit_batches: List[BatchResult] = field(default_factory=list)
    final_units: List[BatchUnit] = field(default_factory=list)

    def timed_wall(self) -> float:
        """Wall seconds inside the timed ``run_batch`` calls."""
        return sum(sweep.wall for sweep in self.sweeps) + sum(self.edit_times)


def _timed(batch, units, **kwargs) -> Tuple[BatchResult, float, float]:
    # Each timed call starts with no collector debt left by earlier
    # work, so its time does not depend on what ran before it.
    gc.collect()
    wall, cpu = time.perf_counter(), cpu_seconds()
    result = batch(units, keep_going=True, **kwargs)
    return result, time.perf_counter() - wall, cpu_seconds() - cpu


def edit_plan(
    workload: str, names: Sequence[str], seed: int
) -> List[Tuple[str, str]]:
    """The seeded edit plan of ``workload``; empty on the cache-less ones."""
    if workload != "incremental-edit":
        return []
    return corpus.edit_plan(names, seed)


def plan_parts(plan: Sequence[Tuple[str, str]]) -> List[List[Tuple[str, str]]]:
    """``PARTS`` consecutive slices of ``plan``; empty for an empty plan."""
    step = max(1, -(-len(plan) // PARTS))
    return [list(plan[i * step:(i + 1) * step]) for i in range(PARTS)]


def run_body(
    workload: str,
    units: Sequence[BatchUnit],
    plan: Sequence[Tuple[str, str]],
    work_dir: str,
    parts: Sequence[int],
    batch: Callable[..., BatchResult] = run_batch,
    jobs: Optional[int] = None,
) -> Body:
    """The timed body of ``workload`` for the given parts of the plan.

    Each selected part is one sweep over the current sources followed by
    that part's edits, each edit followed by a re-run of the whole
    corpus.  The edits of earlier parts are applied untimed first, so
    part ``i`` always sees the same sources.  On ``incremental-edit``
    every sweep is a cold pass on a fresh cache directory, and its
    part's edits re-run warm against that cache.  The cache-less
    workloads are given an empty plan, so their body is one sweep per
    selected part.  Reports are dropped as soon as a call returns, so
    the heap stays small.
    """
    if jobs is None:
        jobs = jobs_of(workload)
    incremental = workload == "incremental-edit"
    body = Body(units=list(units))
    editor = corpus.Editor(units)
    for index, part in enumerate(plan_parts(plan)[:max(parts) + 1]):
        if index not in parts:
            for name, kind in part:
                editor.apply(name, kind)
            continue
        cache = (
            tempfile.mkdtemp(prefix="cache-", dir=work_dir)
            if incremental else None
        )
        options = dict(jobs=jobs, cache=cache, incremental=incremental)
        try:
            current = editor.current()
            result, wall, cpu = _timed(batch, current, **options)
            _drop_reports(result)
            body.sweeps.append(Sweep(corpus.kloc(current), wall, cpu, result))
            for name, kind in part:
                editor.apply(name, kind)
                result, wall, _ = _timed(batch, editor.current(), **options)
                _drop_reports(result)
                body.edit_times.append(wall)
                body.edit_batches.append(result)
        finally:
            if cache is not None:
                shutil.rmtree(cache, ignore_errors=True)
    body.final_units = editor.current()
    return body


def _drop_reports(result: BatchResult) -> None:
    for outcome in result.outcomes:
        outcome.report = None


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


class Verdicts:
    """Scores outcomes against ground truth, outside the timed section.

    ``attempted`` counts sweep units and edit re-runs; ``failed`` those
    that ended in any status but ``clean``/``warnings``.  ``wrong``
    counts outcomes that disagree with ground truth or with the
    reference analysis they must equal.
    """

    def __init__(self, truth: Dict[str, corpus.Expectation]) -> None:
        self.truth = truth
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: List[str] = []

    def _verdict(self, outcome: UnitOutcome) -> bool:
        if not outcome.ok:
            self.notes.append(f"{outcome.unit}: {outcome.status}")
            return False
        expected = self.truth[outcome.unit]
        if outcome.high != expected.high:
            self.wrong += 1
            self.notes.append(
                f"{outcome.unit}: {outcome.high} HIGH, expected {expected.high}"
            )
        elif outcome.warnings < expected.high + expected.low_minimum:
            self.wrong += 1
            self.notes.append(
                f"{outcome.unit}: {outcome.warnings} warnings, expected at"
                f" least {expected.high + expected.low_minimum}"
            )
        return True

    def sweep(self, result: BatchResult) -> None:
        for outcome in result.outcomes:
            self.attempted += 1
            if not self._verdict(outcome):
                self.failed += 1

    def rerun(self, result: BatchResult) -> None:
        self.attempted += 1
        verdicts = [self._verdict(outcome) for outcome in result.outcomes]
        if not all(verdicts):
            self.failed += 1

    def same(self, label: str, got: BatchResult, want: BatchResult) -> None:
        """Each unit of ``got`` must equal ``want``'s in warnings and
        fingerprints."""
        for outcome in got.outcomes:
            reference = want.outcome(outcome.unit)
            if (
                outcome.warning_lines != reference.warning_lines
                or outcome.fingerprints != reference.fingerprints
            ):
                self.wrong += 1
                self.notes.append(f"{outcome.unit}: {label} differs")


def check_body(
    workload: str, body: Body, verdicts: Verdicts, reference: bool = True
) -> None:
    """Every check of one body; runs after the timed section.

    ``reference`` adds the comparisons against a fresh serial analysis,
    which cost a sweep each.  Inputs and outputs are deterministic in
    the seed, so a run makes them once, not once per pass.
    """
    for sweep in body.sweeps:
        verdicts.sweep(sweep.result)
    for result in body.edit_batches:
        verdicts.rerun(result)
    if not reference:
        return
    if workload == "incremental-edit":
        fresh = run_batch(body.final_units, keep_going=True)
        verdicts.same(
            "final warm outcome vs fresh analysis",
            body.edit_batches[-1],
            fresh,
        )
    if workload == "parallel-sweep":
        serial = run_batch(body.units, keep_going=True)
        verdicts.same("parallel vs serial sweep", body.sweeps[0].result, serial)


# ---------------------------------------------------------------------------
# Pool metrics, from ``UnitOutcome.elapsed`` and ``worker_pid``
# ---------------------------------------------------------------------------


def pool_metrics(body: Body, jobs: int) -> Dict[str, float]:
    """Worker load of ``body``'s first sweep."""
    result, wall = body.sweeps[0].result, body.sweeps[0].wall
    busy: Dict[Optional[int], float] = {}
    for outcome in result.outcomes:
        busy[outcome.worker_pid] = busy.get(outcome.worker_pid, 0.0) + outcome.elapsed
    total = sum(busy.values())
    mean = total / jobs
    return {
        "batch.worker_busy_share": total / (jobs * wall),
        "batch.imbalance": max(busy.values()) / mean if mean else 1.0,
        "batch.respawns": (result.supervision or {}).get("respawns", 0),
        "batch.retried": sum(max(0, o.attempts - 1) for o in result.outcomes),
    }
