"""The RegionWiz benchmark: one workload per invocation, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off, in timed
passes, each in a fresh interpreter with its own ``PYTHONHASHSEED``
drawn from the seed, for about ``--seconds``.
``--trace 1`` makes one traced pass and reports the per-layer metrics.
The last line of standard output is the result object; the exit code is
nonzero when any output disagreed with ground truth or the traced run
could not attribute a unit's wall time to its layers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: No pass starts once a run could not end within this many seconds.
RUN_LIMIT_S = 150.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="corpus scale (default: the benchmark's fixed scale)",
    )
    return parser.parse_args(argv)


class Runner:
    """Starts a run's workload processes and records their hash seeds."""

    def __init__(self, args, work_dir: str) -> None:
        self.args = args
        self.work_dir = work_dir
        self.hash_seeds = []

    def spawn(self, mode: str, timeout: float, *extra: str) -> dict:
        from corpus import hash_seed

        args = self.args
        seed = hash_seed(args.seed, len(self.hash_seeds))
        self.hash_seeds.append(seed)
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        env["PYTHONPATH"] = SRC
        # The pool's journal and other temporary files stay in the checkout.
        env["TMPDIR"] = self.work_dir
        # Every start then imports the same cached bytecode, on any host.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--mode", mode, "--workload", args.workload,
            "--seed", str(args.seed), "--scale", str(args.scale),
            "--work-dir", self.work_dir, *extra,
        ]
        spawned_at = time.monotonic()
        done = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
            text=True,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{mode} process exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def _units(section: str) -> dict:
    from metrics import load_spec

    return {metric["name"]: metric["unit"] for metric in load_spec()[section]}


def _untraced(runner, started):
    from stats import median, tail_percentile
    from workloads import PARTS

    args = runner.args
    incremental = args.workload == "incremental-edit"
    passes = []
    while True:
        elapsed = time.monotonic() - started
        # At least one pass per part of the edit plan, so every
        # incremental-edit run times the same 66 edits once; then
        # sweep-only passes while the next one should end within the
        # measuring time.
        if len(passes) >= PARTS and elapsed + passes[-1]["pass_s"] > min(
            args.seconds, RUN_LIMIT_S
        ):
            break
        begin = time.monotonic()
        result = runner.spawn(
            "pass", RUN_LIMIT_S - elapsed,
            "--part", str(len(passes) if len(passes) < PARTS else -1),
            # The comparisons against a fresh analysis: once a run.
            "--reference", "0" if passes else "1",
        )
        result["pass_s"] = time.monotonic() - begin
        passes.append(result)
        _, wall, cpu = result["sweep"]
        print(
            f"pass {len(passes)}: sweep {wall:.3f}s wall {cpu:.3f}s cpu,"
            f" {len(result['edits'])} edit re-runs,"
            f" rss {result['rss_mb']:.1f} MB",
            flush=True,
        )
    setups = [p["setup_s"] for p in passes]
    sweeps = [p["sweep"] for p in passes]
    if incremental:
        edits = [seconds for p in passes for seconds in p["edits"]]
        what = "warm re-runs after an edit"
    else:
        # Without a cache, the re-run after an edit analyses the whole
        # corpus again, and a one-line edit does not change what that
        # costs: each sweep is one such re-run.
        edits = [wall for _, wall, _ in sweeps]
        what = "sweeps, each the cache-less re-run after an edit"
    tail, percentile, samples = tail_percentile(edits)
    metrics = {
        "setup_s": median(setups),
        "kloc_per_s": median([kloc / wall for kloc, wall, _ in sweeps]),
        "kloc_per_cpu_s": median([kloc / cpu for kloc, _, cpu in sweeps]),
        "edit_p50_s": median(edits),
        "edit_tail_s": tail,
        "peak_rss_mb": median([p["rss_mb"] for p in passes]),
    }
    print(
        f"edit_tail_s is p{percentile:.1f} of {samples} {what};"
        f" {len(setups)} set-up samples; {len(sweeps)} sweeps of"
        f" {sweeps[0][0]:.2f} KLOC",
        flush=True,
    )
    return passes, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in _units("end_to_end").items()
    }


def _traced(runner, out_dir):
    args = runner.args
    spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    result = runner.spawn("traced", RUN_LIMIT_S, "--spans", spans)
    if not result["per_unit_datalog"]:
        print("datalog: the workload runs no Datalog solve", flush=True)
    for unit, row in sorted(result["per_unit_datalog"].items()):
        print(
            f"datalog {unit}: {row['tuples_derived']} tuples derived,"
            f" {row['region_pairs']} regionPair, {row['object_pairs']}"
            f" objectPair, useful {row['useful_ratio']:.2e},"
            f" {row['solve_s']:.3f}s",
            flush=True,
        )
    worst = result["worst_unattributed"]
    if worst is not None:
        print(
            f"attribution: worst unit {worst['unit']} leaves"
            f" {worst['share']:.1%} of its run_regionwiz wall outside"
            f" the layer spans; spans in {os.path.relpath(spans, ROOT)}",
            flush=True,
        )
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in _units("per_layer").items()
    }
    return [result], metrics


def _print_inputs(args) -> None:
    """Record the seed's unit order and edit sequence in the output."""
    import corpus
    import workloads

    units = corpus.ordered_units(corpus.build_units(args.scale), args.seed)
    names = [unit.name for unit in units]
    plan = workloads.edit_plan(args.workload, names, args.seed)
    print(f"unit order: {' '.join(names)}", flush=True)
    print(
        "edit sequence (unit index, kind): "
        + (" ".join(f"{names.index(name)}{kind[0]}" for name, kind in plan)
           or "none, the workload makes no edits"),
        flush=True,
    )


def run_workload(args, out_dir):
    """Run one workload; returns its result object."""
    started = time.monotonic()
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    runner = Runner(args, work_dir)
    try:
        if args.trace:
            passes, metrics = _traced(runner, out_dir)
        else:
            passes, metrics = _untraced(runner, started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    for note in sorted({n for p in passes for n in p["notes"]}):
        print(f"check: {note}", file=sys.stderr)
    _print_inputs(args)
    print(
        f"workload {args.workload}: seed {args.seed},"
        f" inputs {sorted({p['inputs'] for p in passes})},"
        f" PYTHONHASHSEED {runner.hash_seeds},"
        f" error_rate {failed / attempted:.4f} ({failed}/{attempted}),"
        f" wrong_verdicts {wrong}",
        flush=True,
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}", flush=True)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "tool", "batch.py")):
        print(
            f"run.py: no RegionWiz sources under {SRC}; run from the root"
            " of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from corpus import SCALE
    from workloads import WORKLOADS

    if args.scale is None:
        args.scale = SCALE
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    for name in names:
        args.workload = name
        results[name] = run_workload(args, out_dir)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
