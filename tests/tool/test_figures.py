"""End-to-end pipeline tests over the paper-figure corpus.

Every code figure in the paper runs through the full RegionWiz pipeline;
its expected verdict (consistent / warning count / rank) is encoded on the
:class:`FigureProgram`.  Runnable figures are additionally executed under
the dynamic runtime and the observed faults compared with expectations.
"""

import pytest

from repro.interfaces import apr_pools_interface, rc_regions_interface
from repro.lang import analyze, parse
from repro.pointer import AnalysisOptions
from repro.runtime import run_program
from repro.tool import run_regionwiz
from repro.workloads import FIGURES, figure


def interface_for(program):
    return (
        rc_regions_interface()
        if program.interface == "rc"
        else apr_pools_interface()
    )


def analyze_figure(program, **kwargs):
    return run_regionwiz(
        program.full_source,
        filename=f"{program.name}.c",
        interface=interface_for(program),
        entry=program.entry,
        name=program.name,
        **kwargs,
    )


@pytest.mark.parametrize("program", FIGURES, ids=lambda p: p.name)
class TestFigureCorpus:
    def test_static_verdict(self, program):
        report = analyze_figure(program)
        assert report.is_consistent == program.expect_consistent, (
            f"{program.title}: expected"
            f" {'consistent' if program.expect_consistent else 'warnings'},"
            f" got {len(report.warnings)} warning(s)"
        )

    def test_warning_counts(self, program):
        report = analyze_figure(program)
        assert len(report.warnings) >= program.min_warnings
        assert len(report.high_warnings) == program.expect_high, (
            f"{program.title}: high-ranked "
            f"{[str(w) for w in report.warnings]}"
        )

    def test_dynamic_agreement(self, program):
        if program.runtime_faults is None:
            pytest.skip("runtime outcome depends on external conditions")
        sema = analyze(parse(program.full_source, f"{program.name}.c"))
        result = run_program(sema, interface_for(program), entry=program.entry)
        observed = bool(
            result.fault_kinds() & {"dangling-created", "dangling-deref"}
        )
        assert observed == program.runtime_faults, (
            f"{program.title}: runtime faults {result.fault_kinds()}"
        )


class TestFigureDetails:
    def test_fig9_warning_points_at_iterator_and_hash(self):
        report = analyze_figure(figure("fig9"))
        (warning,) = report.high_warnings
        # The pointing object is the iterator allocation in apr_hash_first;
        # the target is the hash table allocation in apr_hash_make.
        assert "apr_palloc" in str(
            report.module.instr(warning.source_site)
        ) or warning.source_loc.line > 0
        assert warning.num_contexts >= 1

    def test_fig9_fix_passes(self):
        """The paper's first fix: the caller passes subpool instead of
        pool, so the iterator shares the hash table's region.  (The
        alternative fix -- passing null -- is only provably safe with
        path sensitivity, which the flow-insensitive analysis lacks.)"""
        fixed_source = figure("fig9").full_source.replace(
            "svn_xml_make_open_tag_hash(str, pool, ht)",
            "svn_xml_make_open_tag_hash(str, subpool, ht)",
        )
        report = run_regionwiz(fixed_source, name="fig9_fixed")
        assert report.is_consistent

    def test_fig12_apache_vs_svn(self):
        apache = analyze_figure(figure("fig12a"))
        svn = analyze_figure(figure("fig12b"))
        assert apache.is_consistent
        assert not svn.is_consistent
        # "RegionWiz reports a warning for every such use."
        assert svn.high_warnings

    def test_fig3_requires_join_semantics(self):
        report = analyze_figure(figure("fig3"))
        assert len(report.consistency.hierarchy.joined) == 1

    def test_fig5_low_rank_is_the_known_false_positive(self):
        report = analyze_figure(figure("fig5"))
        assert report.warnings and not report.high_warnings

    def test_context_insensitive_fig9_still_flags(self):
        report = analyze_figure(
            figure("fig9"),
            options=AnalysisOptions(context_sensitive=False, heap_cloning=False),
        )
        assert not report.is_consistent

    def test_fig11_row_shape(self):
        report = analyze_figure(figure("fig1"))
        row = report.fig11_row()
        assert row.regions == 3
        assert row.o_pairs == 0
        assert row.as_tuple()[0] == "fig1"

    def test_runtime_cleanup_order_fig12a(self):
        """Figure 12(a): destroying the pool triggers cleanup_parser,
        which frees the Expat instance (external call)."""
        program = figure("fig12a")
        sema = analyze(parse(program.full_source))
        result = run_program(sema, apr_pools_interface())
        assert "XML_ParserFree" in result.external_calls


WARNING_FIGURES = [p for p in FIGURES if not p.expect_consistent]


@pytest.mark.parametrize("program", WARNING_FIGURES, ids=lambda p: p.name)
def test_solver_stats_warnings_come_from_the_stats_solve(program, monkeypatch):
    """``solver_stats=True`` answers the eq. 4.12 query once: the
    warnings are decoded from the Datalog solve whose stats are
    reported, so the pipeline never calls ``check_consistency``."""
    import repro.tool.regionwiz as regionwiz

    plain = analyze_figure(program)

    def forbidden(*args, **kwargs):
        raise AssertionError("check_consistency ran under solver_stats")

    monkeypatch.setattr(regionwiz, "check_consistency", forbidden)
    stats = analyze_figure(program, solver_stats=True)
    assert stats.times.solver is not None
    assert [w.fingerprint for w in stats.warnings] == [
        w.fingerprint for w in plain.warnings
    ]
    assert [str(w) for w in stats.warnings] == [str(w) for w in plain.warnings]
