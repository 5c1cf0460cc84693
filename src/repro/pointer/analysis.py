"""Context-sensitive, field-sensitive pointer analysis with heap cloning.

The effect-computation phase of RegionWiz (Section 5.3.1): an
Andersen-style, flow-insensitive points-to analysis where

* variables are identified per calling context ``(c, v)``;
* heap objects are *cloned* per context: an allocation site reached along
  two different call paths yields two abstract objects (Nystrom et al.'s
  heap specialization, which the paper argues is necessary here);
* fields are byte offsets (``heap : C x F x N x C x F``).

While propagating, calls to the region interface generate the three
effects of the formal model: ``subregion`` (rnew), ``ownership`` (ralloc),
and ``heap``/access (stores of inter-object pointers).  Every knob the
ablation benchmarks need -- context sensitivity, heap cloning, field
sensitivity, and the paper's declared unsoundness for dynamic offsets --
is an :class:`AnalysisOptions` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.callgraph import CallGraph
from repro.interfaces import RegionInterface
from repro.ir import (
    Add,
    AddrOf,
    Assign,
    Call,
    FuncAddr,
    IntConst,
    Load,
    NullConst,
    Operand,
    Return,
    Store,
    StrConst,
    Temp,
    VarOp,
)
from repro.obs import observe
from repro.pointer.contexts import ContextNumbering, number_contexts
from repro.util.budget import BudgetMeter

__all__ = [
    "AbstractObject",
    "AnalysisOptions",
    "PointerAnalysisResult",
    "ROOT_REGION",
    "NULL_OBJECT",
    "analyze_pointers",
]


@dataclass(frozen=True)
class AbstractObject:
    """An abstract memory object: ``(allocation site, calling context)``.

    ``kind`` distinguishes regions from normal objects (the paper's
    ``R`` vs ``H``), plus stack/global/string/static-function storage.
    """

    kind: str  # 'region'|'heap'|'stack'|'global'|'string'|'func'|'root'|'null'
    site: int  # allocation instruction uid (0 for synthetic objects)
    ctx: int
    name: str

    def __str__(self) -> str:
        suffix = f"#{self.ctx}" if self.ctx else ""
        return f"{self.name}{suffix}"

    @property
    def is_region(self) -> bool:
        return self.kind in ("region", "root")

    @property
    def is_normal(self) -> bool:
        """A normal object in the paper's sense (H): region-allocatable
        storage plus statics/stack that can hold pointers."""
        return self.kind in ("heap", "stack", "global", "string")


ROOT_REGION = AbstractObject("root", 0, 0, "<root>")
NULL_OBJECT = AbstractObject("null", 0, 0, "<null>")

# A points-to target: an object plus a byte offset into it (None = unknown).
Location = Tuple[AbstractObject, Optional[int]]
VarKey = Tuple[str, int, str]  # (function, context, variable); globals ("",0,n)


@dataclass
class AnalysisOptions:
    """Precision knobs (each is an ablation axis)."""

    context_sensitive: bool = True
    heap_cloning: bool = True
    field_sensitive: bool = True
    max_contexts: int = 1 << 16
    # Paper mode: dynamic/overflowing offsets are ignored ("unsound for
    # more complex pointer operations such as arithmetic", Section 5.5).
    track_unknown_offsets: bool = False
    max_field_offset: int = 1 << 12


@dataclass
class PointerAnalysisResult:
    """Everything downstream phases need."""

    graph: CallGraph
    numbering: ContextNumbering
    options: AnalysisOptions
    interface: RegionInterface
    var_pts: Dict[VarKey, FrozenSet[Location]]
    heap_pts: Dict[Tuple[AbstractObject, Optional[int]], FrozenSet[Location]]
    regions: FrozenSet[AbstractObject]
    objects: FrozenSet[AbstractObject]
    subregion: FrozenSet[Tuple[AbstractObject, AbstractObject]]
    ownership: FrozenSet[Tuple[AbstractObject, AbstractObject]]
    accesses: FrozenSet[Tuple[AbstractObject, Optional[int], AbstractObject]]
    access_sites: Dict[
        Tuple[AbstractObject, Optional[int], AbstractObject], FrozenSet[int]
    ]
    cleanups: FrozenSet[Tuple[AbstractObject, str, AbstractObject]]
    iterations: int

    def points_to(self, function: str, variable: str, ctx: int = 0) -> Set[AbstractObject]:
        """Objects a variable may point to (offsets dropped), for tests."""
        key: VarKey = (function, ctx, variable)
        if (function, ctx, variable) not in self.var_pts and function == "":
            key = ("", 0, variable)
        return {obj for obj, _ in self.var_pts.get(key, frozenset())}

    def points_to_anywhere(self, function: str, variable: str) -> Set[AbstractObject]:
        """Union of a variable's points-to over all contexts."""
        result: Set[AbstractObject] = set()
        for (fn, _, var), locations in self.var_pts.items():
            if fn == function and var == variable:
                result.update(obj for obj, _ in locations)
        return result

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @property
    def num_objects(self) -> int:
        return len(self.objects)


class _Engine:
    def __init__(
        self,
        graph: CallGraph,
        interface: RegionInterface,
        options: AnalysisOptions,
        numbering: Optional[ContextNumbering] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> None:
        self.graph = graph
        self.module = graph.module
        # Implicit-call specs by callee: the registry the graph was built
        # with, so custom spawn functions get their argument data flow.
        self._implicit = graph.registry.entries
        self.interface = interface
        self.options = options
        self.meter = meter
        self.numbering = numbering or number_contexts(
            graph,
            context_sensitive=options.context_sensitive,
            max_contexts=options.max_contexts,
        )
        self.var_pts: Dict[VarKey, Set[Location]] = {}
        self.heap_pts: Dict[Tuple[AbstractObject, Optional[int]], Set[Location]] = {}
        self.regions: Set[AbstractObject] = {ROOT_REGION}
        self.objects: Set[AbstractObject] = set()
        self.subregion: Set[Tuple[AbstractObject, AbstractObject]] = set()
        self.ownership: Set[Tuple[AbstractObject, AbstractObject]] = set()
        self.accesses: Set[
            Tuple[AbstractObject, Optional[int], AbstractObject]
        ] = set()
        self.access_sites: Dict[
            Tuple[AbstractObject, Optional[int], AbstractObject], Set[int]
        ] = {}
        self.cleanups: Set[Tuple[AbstractObject, str, AbstractObject]] = set()
        self._stack_sites: Dict[Tuple[str, str], int] = {}
        self._changed = False
        # Derived-fact counter for budget accounting (points-to tuples
        # plus effect tuples); charged incrementally against the meter.
        self._derived = 0
        self._charged = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _obj_ctx(self, ctx: int) -> int:
        return ctx if self.options.heap_cloning else 0

    def _norm_offset(self, offset: Optional[int]) -> Optional[int]:
        if not self.options.field_sensitive:
            return 0
        if offset is not None and abs(offset) > self.options.max_field_offset:
            return None
        return offset

    def _var_key(self, function: str, ctx: int, operand) -> Optional[VarKey]:
        if isinstance(operand, Temp):
            return (function, ctx, f"t{operand.id}")
        if isinstance(operand, VarOp):
            if operand.kind == "global":
                return ("", 0, operand.name)
            return (function, ctx, operand.name)
        return None

    def _value(self, function: str, ctx: int, operand: Operand) -> Set[Location]:
        if isinstance(operand, (Temp, VarOp)):
            key = self._var_key(function, ctx, operand)
            assert key is not None
            return self.var_pts.get(key, set())
        if isinstance(operand, NullConst):
            return {(NULL_OBJECT, 0)}
        if isinstance(operand, StrConst):
            obj = AbstractObject("string", operand.site, 0, f"str{operand.site}")
            if obj not in self.objects:
                self.objects.add(obj)
                self._changed = True
            return {(obj, 0)}
        if isinstance(operand, FuncAddr):
            return {(AbstractObject("func", 0, 0, f"&{operand.name}"), 0)}
        return set()  # integer constants

    def _add_var(self, key: VarKey, locations: Iterable[Location]) -> None:
        bucket = self.var_pts.setdefault(key, set())
        before = len(bucket)
        bucket.update(locations)
        if len(bucket) != before:
            self._changed = True
            self._derived += len(bucket) - before

    def _add_heap(
        self, slot: Tuple[AbstractObject, Optional[int]], locations: Iterable[Location]
    ) -> None:
        bucket = self.heap_pts.setdefault(slot, set())
        before = len(bucket)
        bucket.update(locations)
        if len(bucket) != before:
            self._changed = True
            self._derived += len(bucket) - before

    def _heap_read(
        self, obj: AbstractObject, offset: Optional[int]
    ) -> Set[Location]:
        if not self.options.track_unknown_offsets:
            if offset is None:
                return set()
            return self.heap_pts.get((obj, offset), set())
        if offset is None:
            # Unknown offset reads every field, including the unknown slot.
            result: Set[Location] = set()
            for (other, _), locations in self.heap_pts.items():
                if other == obj:
                    result.update(locations)
            return result
        return self.heap_pts.get((obj, offset), set()) | self.heap_pts.get(
            (obj, None), set()
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> PointerAnalysisResult:
        # Pre-index return operands per function.
        self._returns: Dict[str, List[Operand]] = {}
        for name in self.graph.reachable:
            function = self.module.functions.get(name)
            if function is None:
                continue
            for instr in function.instrs:
                if isinstance(instr, Return) and instr.src is not None:
                    self._returns.setdefault(name, []).append(instr.src)

        iterations = 0
        with observe.span("pointer.solve") as span:
            while True:
                iterations += 1
                self._changed = False
                for name in sorted(self.graph.reachable):
                    function = self.module.functions.get(name)
                    if function is None:
                        continue
                    for ctx in range(self.numbering.contexts_of(name)):
                        self._process_function(name, ctx, function)
                    if self.meter is not None:
                        self._charge_budget()
                if not self._changed:
                    break
            span.set(
                iterations=iterations,
                regions=len(self.regions),
                objects=len(self.objects),
            )

        return PointerAnalysisResult(
            graph=self.graph,
            numbering=self.numbering,
            options=self.options,
            interface=self.interface,
            var_pts={k: frozenset(v) for k, v in self.var_pts.items()},
            heap_pts={k: frozenset(v) for k, v in self.heap_pts.items()},
            regions=frozenset(self.regions),
            objects=frozenset(self.objects),
            subregion=frozenset(self.subregion),
            ownership=frozenset(self.ownership),
            accesses=frozenset(self.accesses),
            access_sites={
                k: frozenset(v) for k, v in self.access_sites.items()
            },
            cleanups=frozenset(self.cleanups),
            iterations=iterations,
        )

    def _charge_budget(self) -> None:
        """Cooperative checkpoint: runs after each function is processed."""
        assert self.meter is not None
        self.meter.charge_tuples(self._derived - self._charged, "correlation")
        self._charged = self._derived
        self.meter.charge_objects(
            len(self.objects) + len(self.regions), "correlation"
        )

    def _process_function(self, name: str, ctx: int, function) -> None:
        for instr in function.instrs:
            if isinstance(instr, Assign):
                key = self._var_key(name, ctx, instr.dst)
                if key is not None:
                    self._add_var(key, self._value(name, ctx, instr.src))
            elif isinstance(instr, AddrOf):
                self._process_addrof(name, ctx, instr)
            elif isinstance(instr, Add):
                self._process_add(name, ctx, instr)
            elif isinstance(instr, Load):
                self._process_load(name, ctx, instr)
            elif isinstance(instr, Store):
                self._process_store(name, ctx, instr)
            elif isinstance(instr, Call):
                self._process_call(name, ctx, instr)

    def _process_addrof(self, name: str, ctx: int, instr: AddrOf) -> None:
        var = instr.var
        if var.kind == "global":
            # One canonical object per global: every &g, from any
            # function, must denote the same storage.
            site = self._stack_sites.setdefault(("", var.name), instr.uid)
            obj = AbstractObject("global", site, 0, f"&{var.name}")
        else:
            site_key = (name, var.name)
            site = self._stack_sites.setdefault(site_key, instr.uid)
            obj = AbstractObject(
                "stack", site, self._obj_ctx(ctx), f"&{name}.{var.name}"
            )
        if obj not in self.objects:
            self.objects.add(obj)
        key = self._var_key(name, ctx, instr.dst)
        if key is not None:
            self._add_var(key, {(obj, 0)})

    def _process_add(self, name: str, ctx: int, instr: Add) -> None:
        key = self._var_key(name, ctx, instr.dst)
        if key is None:
            return
        shifted: Set[Location] = set()
        for obj, offset in self._value(name, ctx, instr.base):
            if instr.offset is None or offset is None:
                shifted.add((obj, self._norm_offset(None)))
            else:
                shifted.add((obj, self._norm_offset(offset + instr.offset)))
        self._add_var(key, shifted)

    def _process_load(self, name: str, ctx: int, instr: Load) -> None:
        key = self._var_key(name, ctx, instr.dst)
        if key is None:
            return
        result: Set[Location] = set()
        for obj, offset in self._value(name, ctx, instr.addr):
            if obj.kind in ("null", "func"):
                continue
            result.update(self._heap_read(obj, offset))
        self._add_var(key, result)

    def _process_store(self, name: str, ctx: int, instr: Store) -> None:
        values = self._value(name, ctx, instr.src)
        if not values:
            return
        for obj, offset in self._value(name, ctx, instr.addr):
            if obj.kind in ("null", "func"):
                continue
            if offset is None and not self.options.track_unknown_offsets:
                continue
            self._add_heap((obj, offset), values)
            # Record the access effect: a normal object holding a pointer
            # to another object or to a region (sigma in the paper).
            if obj.is_normal:
                for target, _ in values:
                    if target.kind in ("null", "func"):
                        continue
                    access = (obj, offset, target)
                    if access not in self.accesses:
                        self.accesses.add(access)
                        self._changed = True
                        self._derived += 1
                    self.access_sites.setdefault(access, set()).add(instr.uid)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _process_call(self, name: str, ctx: int, instr: Call) -> None:
        targets = self.graph.targets(instr.uid)
        for target in targets:
            if target in self.interface.creates:
                self._interface_create(name, ctx, instr, target)
            elif target in self.interface.allocs:
                self._interface_alloc(name, ctx, instr, target)
            elif target in self.interface.cleanups:
                self._interface_cleanup(name, ctx, instr, target)
            # deletes have no static points-to effect.
            if self.module.is_defined(target):
                self._propagate_call(name, ctx, instr, target)
        self._propagate_implicit(name, ctx, instr, targets)

    def _region_args(
        self, name: str, ctx: int, operand: Operand
    ) -> Tuple[Set[AbstractObject], bool]:
        """Regions an operand may denote, plus whether it may be null."""
        regions: Set[AbstractObject] = set()
        may_be_null = isinstance(operand, NullConst)
        for obj, offset in self._value(name, ctx, operand):
            if obj.is_region and (offset == 0 or offset is None):
                regions.add(obj)
            elif obj.kind == "null":
                may_be_null = True
        return regions, may_be_null

    def _interface_create(
        self, name: str, ctx: int, instr: Call, target: str
    ) -> None:
        spec = self.interface.creates[target]
        region = AbstractObject(
            "region", instr.uid, self._obj_ctx(ctx), f"{target}@{instr.loc.line}"
        )
        if region not in self.regions:
            self.regions.add(region)
            self._changed = True
        parents: Set[AbstractObject] = set()
        if spec.parent_arg is None:
            parents.add(ROOT_REGION)
        elif spec.parent_arg < len(instr.args):
            found, may_be_null = self._region_args(
                name, ctx, instr.args[spec.parent_arg]
            )
            parents |= found
            if may_be_null:
                parents.add(ROOT_REGION)
        for parent in parents:
            if parent != region:
                edge = (region, parent)
                if edge not in self.subregion:
                    self.subregion.add(edge)
                    self._changed = True
        if spec.out_arg is None:
            if instr.dst is not None:
                key = self._var_key(name, ctx, instr.dst)
                if key is not None:
                    self._add_var(key, {(region, 0)})
        elif spec.out_arg < len(instr.args):
            for obj, offset in self._value(name, ctx, instr.args[spec.out_arg]):
                if obj.kind in ("null", "func"):
                    continue
                self._add_heap((obj, offset), {(region, 0)})

    def _interface_alloc(
        self, name: str, ctx: int, instr: Call, target: str
    ) -> None:
        spec = self.interface.allocs[target]
        obj = AbstractObject(
            "heap", instr.uid, self._obj_ctx(ctx), f"{target}@{instr.loc.line}"
        )
        if obj not in self.objects:
            self.objects.add(obj)
            self._changed = True
        owners: Set[AbstractObject] = set()
        if spec.region_arg < len(instr.args):
            found, may_be_null = self._region_args(
                name, ctx, instr.args[spec.region_arg]
            )
            owners |= found
            if may_be_null:
                owners.add(ROOT_REGION)
        for owner in owners:
            pair = (owner, obj)
            if pair not in self.ownership:
                self.ownership.add(pair)
                self._changed = True
        if instr.dst is not None:
            key = self._var_key(name, ctx, instr.dst)
            if key is not None:
                self._add_var(key, {(obj, 0)})

    def _interface_cleanup(
        self, name: str, ctx: int, instr: Call, target: str
    ) -> None:
        spec = self.interface.cleanups[target]
        regions: Set[AbstractObject] = set()
        if spec.region_arg < len(instr.args):
            regions, _ = self._region_args(name, ctx, instr.args[spec.region_arg])
        data_objs = {
            obj
            for obj, _ in self._value(name, ctx, instr.args[spec.data_arg])
            if obj.is_normal
        } if spec.data_arg < len(instr.args) else set()
        fn_names: Set[str] = set()
        for position in spec.fn_args:
            if position < len(instr.args):
                operand = instr.args[position]
                if isinstance(operand, FuncAddr):
                    fn_names.add(operand.name)
                else:
                    for obj, _ in self._value(name, ctx, operand):
                        if obj.kind == "func":
                            fn_names.add(obj.name.lstrip("&"))
        for region in regions:
            for fn_name in fn_names:
                for data in data_objs or {NULL_OBJECT}:
                    entry = (region, fn_name, data)
                    if entry not in self.cleanups:
                        self.cleanups.add(entry)
                        self._changed = True

    def _propagate_call(
        self, name: str, ctx: int, instr: Call, target: str
    ) -> None:
        callee_ctx = self.numbering.callee_context(ctx, instr.uid, target)
        if callee_ctx is None:
            return
        function = self.module.functions[target]
        for position, arg in enumerate(instr.args):
            if position >= len(function.params):
                break
            values = self._value(name, ctx, arg)
            if values:
                self._add_var(
                    (target, callee_ctx, function.params[position]), values
                )
        if instr.dst is not None and target in self._returns:
            key = self._var_key(name, ctx, instr.dst)
            if key is not None:
                for operand in self._returns[target]:
                    self._add_var(
                        key, self._value(target, callee_ctx, operand)
                    )

    def _propagate_implicit(
        self, name: str, ctx: int, instr: Call, targets: FrozenSet[str]
    ) -> None:
        for target in targets:
            for spec in self._implicit.get(target, ()):
                if spec.fn_arg >= len(instr.args):
                    continue
                entry_names: Set[str] = set()
                operand = instr.args[spec.fn_arg]
                if isinstance(operand, FuncAddr):
                    entry_names.add(operand.name)
                else:
                    for obj, _ in self._value(name, ctx, operand):
                        if obj.kind == "func":
                            entry_names.add(obj.name.lstrip("&"))
                for entry in entry_names:
                    function = self.module.functions.get(entry)
                    if function is None:
                        continue
                    callee_ctx = self.numbering.callee_context(
                        ctx, instr.uid, entry
                    )
                    if callee_ctx is None:
                        callee_ctx = 0
                    for src_arg, param_idx in spec.data_flow:
                        if (
                            src_arg < len(instr.args)
                            and param_idx < len(function.params)
                        ):
                            values = self._value(name, ctx, instr.args[src_arg])
                            if values:
                                self._add_var(
                                    (
                                        entry,
                                        callee_ctx,
                                        function.params[param_idx],
                                    ),
                                    values,
                                )


def analyze_pointers(
    graph: CallGraph,
    interface: RegionInterface,
    options: Optional[AnalysisOptions] = None,
    numbering: Optional[ContextNumbering] = None,
    meter: Optional[BudgetMeter] = None,
) -> PointerAnalysisResult:
    """Run the effect-computation phase over a pruned call graph.

    ``meter`` adds cooperative budget checkpoints (wall clock, derived
    tuples, abstract objects) at per-function granularity inside the
    fixpoint, so a blowup raises ``BudgetExceeded`` promptly instead of
    running away.
    """
    if options is None:
        options = AnalysisOptions()
    return _Engine(graph, interface, options, numbering, meter).run()
