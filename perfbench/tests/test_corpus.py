import collections

import corpus

SCALE = 0.01


def _inputs(seed):
    units = corpus.ordered_units(corpus.build_units(SCALE), seed)
    plan = corpus.edit_plan([u.name for u in units], seed)
    return units, plan


def test_same_seed_gives_byte_identical_inputs():
    units_a, plan_a = _inputs(7)
    units_b, plan_b = _inputs(7)
    assert [(u.name, u.source) for u in units_a] == [
        (u.name, u.source) for u in units_b
    ]
    assert plan_a == plan_b
    assert corpus.inputs_digest(units_a, plan_a) == corpus.inputs_digest(
        units_b, plan_b
    )
    assert corpus.hash_seed(7, 0) == corpus.hash_seed(7, 0)


def test_same_seed_gives_the_same_edited_sources():
    def edited(seed):
        units, plan = _inputs(seed)
        editor = corpus.Editor(units)
        return [editor.apply(name, kind).source for name, kind in plan]

    assert edited(7) == edited(7)


def test_seeds_differ_only_in_order():
    units_a, plan_a = _inputs(1)
    units_b, plan_b = _inputs(2)
    assert [u.name for u in units_a] != [u.name for u in units_b]
    assert sorted(u.source for u in units_a) == sorted(
        u.source for u in units_b
    )
    assert plan_a != plan_b
    assert collections.Counter(n for n, _ in plan_a) == collections.Counter(
        n for n, _ in plan_b
    )
    assert corpus.hash_seed(1, 0) != corpus.hash_seed(2, 0)
    assert corpus.hash_seed(1, 0) != corpus.hash_seed(1, 1)


def test_every_unit_gets_insert_comment_revert_in_order():
    units, plan = _inputs(3)
    kinds = collections.defaultdict(list)
    for name, kind in plan:
        kinds[name].append("comment" if kind == "whitespace" else kind)
    assert set(kinds) == {u.name for u in units}
    assert all(k == list(corpus.EDIT_KINDS) for k in kinds.values())


def test_revert_undoes_the_insert_and_keeps_the_comment():
    unit = corpus.build_units(SCALE)[0]
    editor = corpus.Editor([unit])
    inserted = editor.apply(unit.name, "insert").source
    assert "bench_edit_probe_" in inserted
    editor.apply(unit.name, "comment")
    reverted = editor.apply(unit.name, "revert").source
    assert "bench_edit_probe_" not in reverted
    assert reverted.startswith(unit.source)
    assert reverted != unit.source


def test_ground_truth_covers_every_unit():
    truth = corpus.ground_truth()
    assert {u.name for u in corpus.build_units(SCALE)} == set(truth)


def test_plan_parts_cover_the_plan_in_order():
    import workloads

    _, plan = _inputs(4)
    parts = workloads.plan_parts(plan)
    assert len(parts) == workloads.PARTS
    assert [edit for part in parts for edit in part] == plan


def test_only_incremental_edit_edits():
    import workloads

    names = [u.name for u in corpus.build_units(SCALE)]
    assert workloads.edit_plan("incremental-edit", names, 4) == (
        corpus.edit_plan(names, 4)
    )
    assert workloads.edit_plan("cold-sweep", names, 4) == []
    assert workloads.edit_plan("parallel-sweep", names, 4) == []
