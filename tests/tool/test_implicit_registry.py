"""A custom implicit-call registry reaches the pointer analysis (§5.1).

One worker is reached three ways: by a direct call, through the built-in
``pthread_create`` spec, and through a custom ``my_spawn`` registered with
the same spec shape.  The spawned worker receives ``h`` as its argument
and stores two sibling-pool pointers into it, so all three must report
the same three HIGH warnings.  Without the registry's data flow,
``my_spawn`` gets the call edge but no argument flow and reports only the
one warning made in ``main``.
"""

import pytest

from repro.callgraph import build_call_graph
from repro.callgraph.datalog_build import build_call_graph_datalog
from repro.callgraph.implicit import ImplicitCallSpec, default_registry
from repro.interfaces import APR_HEADER, apr_pools_interface
from repro.pointer import analyze_pointers
from repro.tool import run_regionwiz
from repro.tool.batch import BatchUnit, run_batch
from repro.tool.cache import AnalysisCache
from tests.conftest import compile_module

PROGRAM = APR_HEADER + """
int pthread_create(void *tid, void *attr, void *(*start)(void *), void *arg);
void my_spawn(void *(*start)(void *), void *arg);
struct cell { void *f; void *g; void *h; };
apr_pool_t *b;
void *worker(void *data) {
    struct cell *c = data;
    c->g = apr_palloc(b, 16);
    c->h = apr_palloc(b, 32);
    return NULL;
}
int main(void) {
    apr_pool_t *a; int tid;
    apr_pool_create(&a, NULL); apr_pool_create(&b, NULL);
    struct cell *h = apr_palloc(a, sizeof(struct cell));
    h->f = apr_palloc(b, 8);
    SPAWN;
    return 0;
}
"""

SPAWNS = {
    "direct": "worker(h)",
    "pthread": "pthread_create(&tid, NULL, worker, h)",
    "custom": "my_spawn(worker, h)",
}


def custom_registry():
    registry = default_registry()
    registry.register("my_spawn", ImplicitCallSpec(0, ((1, 0),)))
    return registry


def source(way):
    return PROGRAM.replace("SPAWN", SPAWNS[way])


def unit(way):
    return BatchUnit(name=way, source=source(way), filename="spawn.c")


def signature(report):
    return (
        [str(warning) for warning in report.warnings],
        [warning.fingerprint for warning in report.warnings],
    )


def test_run_regionwiz_spawn_equals_direct_call():
    reports = {
        way: run_regionwiz(source(way), registry=custom_registry())
        for way in SPAWNS
    }
    assert len(reports["direct"].high_warnings) == 3
    assert signature(reports["pthread"]) == signature(reports["direct"])
    assert signature(reports["custom"]) == signature(reports["direct"])


def test_run_batch_spawn_equals_direct_call():
    result = run_batch(
        [unit(way) for way in SPAWNS], registry=custom_registry()
    )
    by_way = {outcome.unit: outcome for outcome in result.outcomes}
    assert by_way["direct"].high == 3
    for way in ("pthread", "custom"):
        assert by_way[way].high == 3
        assert by_way[way].fingerprints == by_way["direct"].fingerprints


@pytest.mark.parametrize("builder", [build_call_graph, build_call_graph_datalog])
def test_both_builders_carry_the_registry(builder):
    registry = custom_registry()
    graph = builder(compile_module(source("custom")), registry=registry)
    assert graph.registry is registry
    analysis = analyze_pointers(graph, apr_pools_interface())
    (data,) = graph.module.functions["worker"].params
    assert analysis.var_pts.get(("worker", 0, data))


class TestCacheKeys:
    def test_cached_default_outcome_is_not_served_to_a_custom_registry(
        self, tmp_path
    ):
        cache = str(tmp_path)
        first = run_batch([unit("custom")], cache=cache)
        assert first.outcomes[0].high == 1  # my_spawn is unknown here
        second = run_batch(
            [unit("custom")], cache=cache, registry=custom_registry()
        )
        assert not second.outcomes[0].cached
        assert second.outcomes[0].high == 3

    def test_incremental_state_is_keyed_by_the_registry(self, tmp_path):
        # A comment edit misses the outcome key but would find the unit's
        # incremental state, whose manifest diff is clean.
        cache = str(tmp_path)
        run_batch([unit("custom")], cache=cache, incremental=True)
        edited = BatchUnit(
            name="custom",
            source=source("custom") + "/* edited */\n",
            filename="spawn.c",
        )
        warm = run_batch(
            [edited],
            cache=cache,
            incremental=True,
            registry=custom_registry(),
        )
        assert warm.outcomes[0].high == 3

    def key(self, registry):
        return AnalysisCache.key(
            source="int main(void) { return 0; }",
            filename="a.c",
            interface="apr",
            entry="main",
            options=None,
            budget=None,
            degrade=False,
            refine=False,
            solver_stats=False,
            registry=registry,
        )

    def test_default_registry_keeps_the_registry_free_key(self):
        assert self.key(default_registry()) == self.key(None)

    def test_custom_registry_changes_the_key(self):
        assert self.key(custom_registry()) != self.key(None)

    def test_key_ignores_spec_order_and_duplicates(self):
        registry = default_registry()
        registry.register(
            "my_spawn",
            ImplicitCallSpec(1),
            ImplicitCallSpec(0, ((1, 0),)),
            ImplicitCallSpec(1),
        )
        reordered = default_registry()
        reordered.register(
            "my_spawn", ImplicitCallSpec(0, ((1, 0),)), ImplicitCallSpec(1)
        )
        assert self.key(registry) == self.key(reordered)
