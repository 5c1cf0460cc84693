"""Export a Chrome trace of one package-corpus batch run (CI artifact).

Runs the synthetic apache package sweep (nine executables, the largest
of the Figure-11 corpus) through :func:`repro.tool.batch.run_batch`
under an installed tracer and writes the Chrome ``trace_event`` JSON --
one ``batch.unit`` span per executable, phases and solver strata nested
inside.  CI uploads the file as a workflow artifact so any run's
pipeline timeline can be opened in chrome://tracing or Perfetto without
reproducing the run.

Usage: python export_package_trace.py [--package NAME] [--out PATH]
"""

from __future__ import annotations

import argparse
import sys

from repro.obs import observe
from repro.obs.trace import Tracer
from repro.tool.batch import run_batch
from repro.workloads import package, package_units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--package",
        default="apache",
        help="workload package to sweep (default: apache)",
    )
    parser.add_argument(
        "--out",
        default="package_trace.json",
        help="Chrome trace output path (default: package_trace.json)",
    )
    args = parser.parse_args(argv)

    units = package_units(package(args.package))
    tracer = Tracer()
    with observe.observing(tracer):
        result = run_batch(units, keep_going=True, solver_stats=True)
    tracer.write_chrome_trace(args.out)

    unit_spans = tracer.find("batch.unit")
    print(result.summary(), file=sys.stderr)
    print(
        f"wrote {args.out}: {len(unit_spans)} batch.unit span(s),"
        f" {sum(len(root.find('phase.correlation')) for root in tracer.roots)}"
        " correlation phase(s)"
    )
    if len(unit_spans) != len(units):
        print("error: expected one span per unit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
