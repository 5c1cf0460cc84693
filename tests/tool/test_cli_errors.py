"""Tests for the CLI exit-code contract, budgets, and batch mode."""

import json

import pytest

from repro.tool.cli import main
from repro.tool.regionwiz import run_regionwiz
from repro.util import faults
from repro.util.budget import ResourceBudget
from repro.workloads import WorkloadSpec, figure, generate_workload


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def write_source(tmp_path, program):
    path = tmp_path / f"{program.name}.c"
    path.write_text(program.full_source)
    return str(path)


def heavy_workload():
    """A workload whose full-precision run derives many more tuples than
    its degraded runs, so a mid-range budget forces the ladder."""
    return generate_workload(
        WorkloadSpec(
            name="heavy",
            interface="apr",
            stages=3,
            fanout=2,
            helpers_per_stage=2,
            objects_per_stage=2,
            utility_functions=2,
            utility_call_sites=2,
        )
    )


def full_precision_tuples(source):
    """How many tuples the unrestricted full-precision run derives."""
    report = run_regionwiz(
        source, budget=ResourceBudget(max_derived_tuples=10**9)
    )
    return report.budget_usage["derived_tuples"]


class TestExitCodes:
    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.c")]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_parse_error_in_second_file(self, tmp_path, capsys):
        good = tmp_path / "good.c"
        good.write_text(figure("fig1").full_source)
        bad = tmp_path / "bad.c"
        bad.write_text("int broken(void) {\n    return 0 +;\n}\n")
        assert main([str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        # The #line markers must attribute the diagnostic to the second
        # file with its own line numbering, not the concatenation offset.
        assert "bad.c:2" in err
        assert "good.c" not in err

    @pytest.mark.parametrize(
        "number, column", [("1\u00b2", 10), ("1\u0663", 10), ("09", 9)]
    )
    def test_bad_digit_in_number_exit_two(
        self, tmp_path, capsys, number, column
    ):
        # A bad digit in a number is an input error, not a crash.
        path = tmp_path / "digits.c"
        path.write_text(f"int x = {number};\n", encoding="utf-8")
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert f"digits.c:1:{column}:" in err
        assert "digit" in err
        assert "Traceback" not in err

    def test_internal_error_exit_three_with_traceback(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig1"))
        with faults.injected("correlation", message="injected crash"):
            assert main([path]) == 3
        err = capsys.readouterr().err
        assert "regionwiz: internal error" in err
        assert "InjectedFault" in err  # the traceback is not swallowed

    def test_budget_exhaustion_exit_four(self, tmp_path, capsys):
        workload = heavy_workload()
        path = tmp_path / "heavy.c"
        path.write_text(workload.source)
        limit = full_precision_tuples(workload.source) - 1
        assert main([str(path), "--max-derived", str(limit)]) == 4
        err = capsys.readouterr().err
        assert "derived_tuples budget exceeded" in err
        assert "Traceback" not in err


class TestDegradation:
    def test_degrade_flag_recovers_and_reports_rung(self, tmp_path, capsys):
        workload = heavy_workload()
        path = tmp_path / "heavy.c"
        path.write_text(workload.source)
        limit = full_precision_tuples(workload.source) - 1
        code = main([str(path), "--max-derived", str(limit), "--degrade"])
        assert code in (0, 1)  # completed: clean or warnings, not 4
        out = capsys.readouterr().out
        assert "degraded(precision=" in out

    def test_degraded_json_report(self, tmp_path, capsys):
        workload = heavy_workload()
        path = tmp_path / "heavy.c"
        path.write_text(workload.source)
        limit = full_precision_tuples(workload.source) - 1
        code = main(
            [str(path), "--max-derived", str(limit), "--degrade", "--json"]
        )
        assert code in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["degraded"] is True
        assert payload["precision"] != "full"
        assert payload["degradation_path"][0] == "full"
        assert payload["budget"]["max_derived_tuples"] == limit
        assert payload["budget_usage"]["derived_tuples"] <= limit

    def test_ladder_api_records_failed_rungs(self):
        workload = heavy_workload()
        limit = full_precision_tuples(workload.source) - 1
        report = run_regionwiz(
            workload.source,
            budget=ResourceBudget(max_derived_tuples=limit),
            degrade=True,
        )
        assert report.degraded
        assert report.precision in (
            "no-heap-cloning",
            "context-insensitive",
            "field-insensitive",
        )
        assert report.degradation_path[0] == "full"
        assert report.budget_usage["derived_tuples"] <= limit

    def test_generous_budget_stays_full_precision(self):
        workload = heavy_workload()
        report = run_regionwiz(
            workload.source,
            budget=ResourceBudget(max_derived_tuples=10**9),
            degrade=True,
        )
        assert not report.degraded
        assert report.precision == "full"
        assert report.degradation_path == ()


class TestJsonOnFailure:
    def test_json_flag_on_failing_unit_still_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        assert main([str(bad), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no partial JSON on stdout
        assert "regionwiz:" in captured.err


class TestBatchMode:
    def test_batch_keep_going_with_poisoned_unit(self, tmp_path, capsys):
        good1 = tmp_path / "fig1.c"
        good1.write_text(figure("fig1").full_source)
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        good2 = tmp_path / "fig2a.c"
        good2.write_text(figure("fig2a").full_source)
        code = main(
            ["--batch", "--keep-going", str(good1), str(bad), str(good2)]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "2/3 unit(s) analyzed" in out
        assert "input-error" in out

    def test_batch_stops_without_keep_going(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        good = tmp_path / "fig1.c"
        good.write_text(figure("fig1").full_source)
        assert main(["--batch", str(bad), str(good)]) == 2
        out = capsys.readouterr().out
        assert "skipped" in out

    def test_batch_json_summary(self, tmp_path, capsys):
        good = tmp_path / "fig1.c"
        good.write_text(figure("fig1").full_source)
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        code = main(["--batch", "--keep-going", "--json", str(good), str(bad)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert payload["succeeded"] == 1
        assert payload["failed"] == 1
        statuses = {r["unit"]: r["status"] for r in payload["results"]}
        assert statuses[str(good)] == "clean"
        assert statuses[str(bad)] == "input-error"

    def test_batch_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["--batch", str(tmp_path / "nope.c")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_resume_requires_a_journal(self, tmp_path, capsys):
        good = tmp_path / "fig1.c"
        good.write_text(figure("fig1").full_source)
        assert main(["--batch", "--resume", str(good)]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_journal_resume_round_trip(self, tmp_path, capsys):
        good1 = tmp_path / "fig1.c"
        good1.write_text(figure("fig1").full_source)
        good2 = tmp_path / "fig2a.c"
        good2.write_text(figure("fig2a").full_source)
        journal = tmp_path / "sweep.jsonl"
        argv = [
            "--batch", "--keep-going", "--json",
            "--journal", str(journal),
            str(good1), str(good2),
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert all(not r.get("resumed") for r in first["results"])
        # A resumed run replays both outcomes from the journal.
        assert main(argv[:2] + ["--resume"] + argv[2:]) == 0
        second = json.loads(capsys.readouterr().out)
        assert all(r.get("resumed") for r in second["results"])
        assert second["supervision"]["resumed"] == 2


class TestUnwritableOutputs:
    """An output path the run cannot write fails before analysis starts,
    with one ``cannot write`` line and exit 2 (an input error), never a
    traceback or the exit code of a warning or an internal error."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trace", "{bad}"],
            ["--html-report", "{bad}"],
            ["--validate", "--trace-out", "{bad}"],
            ["--batch", "--journal", "{bad}"],
            ["--batch", "--cache", "{bad}"],
        ],
        ids=["trace", "html-report", "trace-out", "journal", "cache"],
    )
    def test_exit_two_with_one_line(self, tmp_path, capsys, flags):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        bad = str(blocker / "x")  # a regular file used as a directory
        path = write_source(tmp_path, figure("fig2c"))
        argv = [bad if flag == "{bad}" else flag for flag in flags]
        assert main([*argv, path]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.strip().splitlines()
        assert line.startswith(f"regionwiz: cannot write {bad}: ")
        assert captured.out == ""  # refused before any analysis ran
