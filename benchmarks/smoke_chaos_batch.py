"""CI chaos smoke: the batch supervisor under kill/hang faults.

Sweeps the six-package corpus through the supervised parallel executor
three times and asserts the crash-proofing contract end to end:

1. **Chaos convergence** -- one unit's worker is SIGKILLed mid-unit and
   another unit hangs past the hard deadline (both transient,
   ``times=1``).  The supervisor must respawn the pool, watchdog-kill
   the hung worker, retry both units, and converge to exactly the
   fault-free report: zero lost units, identical warning sets, exit 0.
2. **Quarantine** -- one unit SIGKILLs its worker on *every* attempt (a
   poison pill).  Retry and solo bisection must fail, leaving one
   ``crashed`` outcome carrying pid/signal detail, every innocent unit
   completed, and the batch folded to exit 3.
3. **Overhead gate** -- the fault-free supervised sweep must report the
   same warnings as a serial (``jobs=1``) sweep, and its journal -- the
   channel supervision adds to the pool -- must stay effectively free:
   every record the sweep journaled is re-appended with the workers'
   journal writer and tailed once per record with ``RunJournal.tail``
   on a temporary file, and that cost must stay under
   ``MAX_OVERHEAD_PCT`` of the sweep's wall time.

Headline numbers land in ``BENCH_batch_supervision.json`` (JSON-lines,
one record per run) for cross-PR trajectory plots.

Usage: ``PYTHONPATH=src python benchmarks/smoke_chaos_batch.py``
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import time

from repro.tool.batch import BatchResult, _WorkerJournal, run_batch
from repro.tool.supervise import RunJournal, SupervisePolicy
from repro.util import faults
from repro.workloads import PACKAGES, package_units

JOBS = 2
#: Writing and tailing a fault-free sweep's journal may cost at most
#: this share of the sweep's wall time.
MAX_OVERHEAD_PCT = 3.0

#: Snappy supervisor reflexes so the smoke stays cheap: short respawn
#: backoff and a tight watchdog poll.
FAST = dict(backoff_base=0.02, backoff_cap=0.2, poll_interval=0.02)


def warning_sets(result: BatchResult):
    return [(o.unit, o.status, o.warning_lines) for o in result.outcomes]


def check_no_lost_units(result: BatchResult, units, failures, label: str):
    if len(result.outcomes) != len(units):
        failures.append(
            f"{label}: {len(result.outcomes)} outcome(s) for"
            f" {len(units)} unit(s) -- units were lost"
        )


def journal_cost(records, path: str) -> float:
    """Seconds to re-append ``records`` with the workers' journal
    writer and tail them back, one ``RunJournal.tail`` per record."""
    reader = RunJournal(path)
    writer = _WorkerJournal(path)
    started = time.perf_counter()
    for record in records:
        fields = {
            key: value
            for key, value in record.items()
            if key not in ("kind", "pid", "t")
        }
        writer.append(record["kind"], **fields)
        reader.tail()
    cost = time.perf_counter() - started
    writer.close()
    reader.close()
    return cost


def main() -> int:
    units = [unit for model in PACKAGES for unit in package_units(model)]
    names = [u.name for u in units]
    kill_victim, hang_victim, poison = names[0], names[1], names[2]
    print(
        f"chaos smoke: {len(units)} unit(s), jobs={JOBS};"
        f" kill={kill_victim} hang={hang_victim} poison={poison}"
    )
    failures: list = []

    # Reference + overhead gate: a fault-free supervised sweep with a
    # named journal, its warnings checked against a serial sweep and
    # its journal priced directly.
    serial = run_batch(units, keep_going=True)
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "journal.jsonl")
        t0 = time.perf_counter()
        reference = run_batch(
            units, keep_going=True, jobs=JOBS, journal=journal
        )
        t_sup = time.perf_counter() - t0
        records = RunJournal.load(journal)
        t_journal = journal_cost(records, os.path.join(tmp, "priced.jsonl"))
    if warning_sets(reference) != warning_sets(serial):
        failures.append("supervised fault-free report differs from serial")
    overhead_pct = t_journal / t_sup * 100.0 if t_sup > 0 else 0.0
    print(
        f"overhead: supervised {t_sup:.2f}s, its {len(records)} journal"
        f" record(s) cost {t_journal * 1000:.2f}ms ({overhead_pct:.2f}%)"
    )
    if overhead_pct >= MAX_OVERHEAD_PCT:
        failures.append(
            f"journal overhead {overhead_pct:.2f}% exceeds"
            f" {MAX_OVERHEAD_PCT}%"
        )

    # Size the hard deadline off the observed fault-free unit times so a
    # slow CI runner never trips the watchdog on an honest unit.
    # (10x the slowest honest unit, clamped: the hung unit costs one
    # full deadline of wall clock before the watchdog reaps it).
    slowest = max(o.elapsed for o in reference.outcomes)
    hard_timeout = max(2.0, min(10.0, 10.0 * slowest))

    # Phase 1: one transient worker-kill, one transient hang -- run as
    # separate sweeps so each recovery path is exercised deterministically
    # (a broken pool's teardown would kill a concurrently hanging worker
    # before the watchdog gets a look at it).
    t0 = time.perf_counter()
    with faults.injected(
        "batch-unit", unit=kill_victim, action="kill", times=1
    ):
        killed = run_batch(
            units,
            keep_going=True,
            jobs=JOBS,
            policy=SupervisePolicy(**FAST),
        )
    with faults.injected(
        "batch-unit",
        unit=hang_victim,
        action="hang",
        delay_seconds=3600.0,
        times=1,
    ):
        hung = run_batch(
            units,
            keep_going=True,
            jobs=JOBS,
            policy=SupervisePolicy(hard_timeout=hard_timeout, **FAST),
        )
    t_chaos = time.perf_counter() - t0
    respawns = (killed.supervision or {}).get("respawns", 0)
    watchdog_kills = (hung.supervision or {}).get("watchdog_kills", 0)
    for label, chaos in (("kill-chaos", killed), ("hang-chaos", hung)):
        check_no_lost_units(chaos, units, failures, label)
        if warning_sets(chaos) != warning_sets(reference):
            failures.append(
                f"{label} sweep did not converge to fault-free report"
            )
        if chaos.exit_code() != reference.exit_code():
            failures.append(
                f"{label} exit {chaos.exit_code()} !="
                f" fault-free {reference.exit_code()}"
            )
    if respawns < 1:
        failures.append("kill-chaos sweep never respawned the pool")
    if watchdog_kills < 1:
        failures.append("watchdog never fired on the hung unit")
    print(
        f"chaos: converged in {t_chaos:.2f}s"
        f" (respawns={respawns}, watchdog kills={watchdog_kills})"
    )

    # Phase 2: a poison pill is quarantined, innocents complete.
    with faults.injected("batch-unit", unit=poison, action="kill"):
        pilled = run_batch(
            units,
            keep_going=True,
            jobs=JOBS,
            policy=SupervisePolicy(**FAST),
        )
    check_no_lost_units(pilled, units, failures, "quarantine")
    crashed = pilled.outcome(poison)
    if crashed.status != "crashed":
        failures.append(
            f"poison pill reported {crashed.status!r}, expected 'crashed'"
        )
    elif (
        "SIGKILL" not in (crashed.error_detail or {}).get("signal_name", "")
        and (crashed.error_detail or {}).get("signal") != signal.SIGKILL
    ):
        failures.append("crashed outcome lacks its SIGKILL attribution")
    innocents = [o for o in pilled.outcomes if o.unit != poison]
    if not all(o.ok for o in innocents):
        bad = [o.unit for o in innocents if not o.ok]
        failures.append(f"innocent unit(s) lost to the poison pill: {bad}")
    if pilled.exit_code() != 3:
        failures.append(
            f"quarantine batch exit {pilled.exit_code()}, expected 3"
        )
    quarantined = (pilled.supervision or {}).get("quarantined", 0)
    print(
        f"quarantine: {poison} crashed"
        f" ({len(innocents)}/{len(units) - 1} innocents ok,"
        f" quarantined={quarantined})"
    )

    try:
        from conftest import record_bench

        record_bench(
            "batch_supervision",
            units=len(units),
            jobs=JOBS,
            journal_cost_s=round(t_journal, 6),
            supervised_s=round(t_sup, 3),
            overhead_pct=round(overhead_pct, 2),
            chaos_s=round(t_chaos, 3),
            respawns=respawns,
            watchdog_kills=watchdog_kills,
            quarantined=quarantined,
        )
    except ImportError:
        pass  # direct invocation from another cwd

    if failures:
        for failure in failures:
            print(f"chaos smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
