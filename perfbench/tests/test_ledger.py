import time

import pytest

import ledger as ledger_module
from ledger import Ledger


def test_self_time_excludes_children():
    ledger = Ledger()
    with ledger.span("outer", unit="u"):
        time.sleep(0.01)
        with ledger.span("inner"):
            time.sleep(0.02)
    outer, inner = ledger.spans
    assert inner.parent == 0 and inner.unit == "u"
    assert outer.self_time == pytest.approx(
        outer.duration - inner.duration
    )
    assert ledger.self_times()["inner"] >= 0.02


def test_installed_wrappers_are_removed_on_exit():
    import repro.tool.regionwiz as regionwiz
    from repro.datalog.program import Program

    before = (regionwiz.parse, Program.solve)
    with Ledger().installed():
        assert regionwiz.parse is not before[0]
    assert (regionwiz.parse, Program.solve) == before


def test_traced_pipeline_is_attributed_to_layers():
    from repro.tool.batch import run_batch

    import corpus

    units = [u for u in corpus.build_units(0.01) if u.name == "rcc/rcc"]
    ledger = Ledger()
    with ledger.installed():
        result = run_batch(units)
    assert result.outcomes[0].ok
    names = {span.name for span in ledger.spans}
    assert {"tool.pipeline", "lang.lex", "lang.parse", "pointer.solve",
            "core.consistency"} <= names
    worst = ledger.worst_unattributed()
    assert worst["unit"] == "rcc/rcc"
    assert worst["share"] < ledger_module.ATTRIBUTION_BOUND
