"""One workload process in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with a ``PYTHONHASHSEED`` drawn from the workload
seed and ``--spawned-at`` set to the parent's monotonic clock just
before the start, so set-up time covers interpreter start, imports,
corpus generation and a fresh cache directory.

Modes:

* ``pass`` -- set up, run one part of the body (or only its sweep) with
  tracing off, check it;
* ``traced`` -- run the whole body untraced, then again under the span
  ledger, and report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import tempfile
import time


def _args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("pass", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument(
        "--part", type=int, default=0, help="edit-plan part; -1: sweep only"
    )
    parser.add_argument("--reference", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = _args(argv)
    import corpus
    import workloads

    units = corpus.ordered_units(corpus.build_units(args.scale), args.seed)
    plan = workloads.edit_plan(
        args.workload, [unit.name for unit in units], args.seed
    )
    work_dir = tempfile.mkdtemp(prefix="pass-", dir=args.work_dir)
    setup_s = time.monotonic() - args.spawned_at
    try:
        if args.mode == "pass":
            out = _pass(
                args.workload, units, plan, work_dir, args.part, args.reference
            )
            out["setup_s"] = setup_s
        else:
            out = _traced(args.workload, units, plan, work_dir, args.spans)
        out["inputs"] = corpus.inputs_digest(units, plan)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _pass(workload, units, plan, work_dir, part, reference):
    import corpus
    import workloads

    if part < 0:  # a sweep with no edits
        plan = []
        part = 0
    body = workloads.run_body(workload, units, plan, work_dir, [part])
    (sweep,) = body.sweeps
    rss_mb = workloads.peak_rss_mb()
    verdicts = workloads.Verdicts(corpus.ground_truth())
    workloads.check_body(workload, body, verdicts, reference=bool(reference))
    return {
        "sweep": [sweep.kloc, sweep.wall, sweep.cpu],
        "edits": body.edit_times,
        "rss_mb": rss_mb,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "wrong": verdicts.wrong,
        "notes": verdicts.notes,
    }


def _traced(workload, units, plan, work_dir, spans_path):
    import corpus
    import workloads
    from ledger import ATTRIBUTION_BOUND, LAYER_SPANS, Ledger
    from repro.tool.batch import run_batch

    verdicts = workloads.Verdicts(corpus.ground_truth())
    everything = range(workloads.PARTS)
    pool = None
    if workloads.jobs_of(workload) > 1:
        # Pool workers cannot be timed from outside: the pool metrics
        # come from the untraced parallel body's UnitOutcome.elapsed and
        # worker_pid, and the layer ledger from a serial body over the
        # same inputs, whose analysis work is the same.
        parallel = workloads.run_body(
            workload, units, plan, work_dir, everything
        )
        workloads.check_body(workload, parallel, verdicts)
        pool = workloads.pool_metrics(parallel, workloads.jobs_of(workload))
        del parallel
    ledger = Ledger()
    traced_batch = ledger.wrap("tool.batch", run_batch)
    plain_wall = traced_wall = 0.0
    traced_bodies = []
    for part in everything:
        # Untraced and traced bodies alternate part by part, so changes
        # in the host's speed fall on both and trace.overhead measures
        # the ledger rather than the drift.
        plain = workloads.run_body(
            workload, units, plan, work_dir, [part], jobs=1
        )
        plain_wall += plain.timed_wall()
        workloads.check_body(
            workload, plain, verdicts,
            reference=pool is None and part == everything[-1],
        )
        if pool is None:
            pool = workloads.pool_metrics(plain, 1)
        del plain
        gc.collect()
        with ledger.installed():
            traced = workloads.run_body(
                workload, units, plan, work_dir, [part],
                batch=traced_batch, jobs=1,
            )
        traced_wall += traced.timed_wall()
        workloads.check_body(workload, traced, verdicts, reference=False)
        traced_bodies.append(traced)

    ledger.dump(spans_path)

    layer_self = sum(
        record.self_time
        for record in ledger.spans
        if record.name in LAYER_SPANS
    )
    worst = ledger.worst_unattributed()
    if worst is not None and worst["share"] > ATTRIBUTION_BOUND:
        verdicts.wrong += 1
        verdicts.notes.append(
            f"{worst['unit']}: {worst['share']:.1%} of run_regionwiz wall"
            f" time is outside the layer spans (bound"
            f" {ATTRIBUTION_BOUND:.0%})"
        )
    metrics = layer_metrics(ledger, traced_bodies)
    metrics.update(pool)
    metrics["trace.unattributed_share"] = 1.0 - layer_self / traced_wall
    metrics["trace.overhead"] = traced_wall / plain_wall - 1.0
    return {
        "metrics": metrics,
        "per_unit_datalog": per_unit_datalog(ledger),
        "worst_unattributed": worst,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "wrong": verdicts.wrong,
        "notes": verdicts.notes,
    }


def layer_metrics(ledger, bodies) -> dict:
    self_times = ledger.self_times()

    def s(name: str) -> float:
        return self_times.get(name, 0.0)

    tokens = ledger.count("lang.lex", "tokens")
    derived = ledger.count("datalog.solve", "tuples_derived")
    hits = misses = 0
    results = [sweep.result for body in bodies for sweep in body.sweeps]
    results += [result for body in bodies for result in body.edit_batches]
    for result in results:
        counters = result.cache_counters or {}
        hits += counters.get("hits", 0)
        misses += counters.get("misses", 0)
    return {
        "lang.lex_s": s("lang.lex"),
        "lang.parse_s": s("lang.parse"),
        "lang.sema_s": s("lang.sema"),
        "lang.tokens": tokens,
        "lang.tokens_per_s": tokens / s("lang.lex") if s("lang.lex") else 0.0,
        "ir.lower_s": s("ir.lower"),
        "ir.instrs": ledger.count("ir.lower", "instrs"),
        "callgraph.build_s": s("callgraph.build"),
        "callgraph.edges": ledger.count("callgraph.build", "edges"),
        "callgraph.reachable": ledger.count("callgraph.build", "reachable"),
        "pointer.contexts_s": s("pointer.contexts"),
        "pointer.contexts": ledger.count("pointer.contexts", "contexts"),
        "pointer.solve_s": s("pointer.solve"),
        "pointer.iterations": ledger.count("pointer.solve", "iterations"),
        "pointer.objects": ledger.count("pointer.solve", "objects"),
        "pointer.regions": ledger.count("pointer.solve", "regions"),
        "pointer.accesses": ledger.count("pointer.solve", "accesses"),
        "core.hierarchy_s": s("core.hierarchy"),
        "core.consistency_s": s("core.consistency"),
        "core.rank_s": s("core.rank"),
        "core.o_pairs": ledger.count("core.consistency", "o_pairs"),
        "core.i_pairs": ledger.count("core.rank", "i_pairs"),
        "datalog.solve_s": s("datalog.solve"),
        "datalog.tuples_derived": derived,
        "datalog.rounds": ledger.count("datalog.solve", "rounds"),
        "datalog.region_pairs": ledger.count("datalog.solve", "region_pairs"),
        "datalog.useful_ratio": (
            ledger.count("datalog.solve", "object_pairs") / derived
            if derived else 0.0
        ),
        "datalog.update_s": s("datalog.update"),
        "datalog.update.delta": ledger.count("datalog.update", "mode.delta"),
        "datalog.update.noop": ledger.count("datalog.update", "mode.noop"),
        "datalog.update.resolve": ledger.count(
            "datalog.update", "mode.resolve"
        ),
        "tool.pipeline_self_s": s("tool.pipeline"),
        "tool.batch_self_s": s("tool.batch"),
        "cache.lookup_s": s("cache.lookup"),
        "cache.lookups": ledger.count("cache.lookup", "lookups"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.store_s": s("cache.store"),
        "cache.stores": ledger.count("cache.store", "stores"),
        "incremental.probe_s": s("incremental.probe"),
    }


def per_unit_datalog(ledger) -> dict:
    """Each unit's first full Datalog solve: its waste counters."""
    table = {}
    for record in ledger.spans:
        if record.name != "datalog.solve" or record.unit in table:
            continue
        derived = record.counts.get("tuples_derived", 0)
        table[record.unit] = {
            "solve_s": record.duration,
            "tuples_derived": derived,
            "region_pairs": record.counts.get("region_pairs", 0),
            "object_pairs": record.counts.get("object_pairs", 0),
            "useful_ratio": (
                record.counts.get("object_pairs", 0) / derived
                if derived else 0.0
            ),
        }
    return table


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
