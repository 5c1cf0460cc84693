"""Incremental, demand-driven re-analysis: manifests + delta re-solve.

A warm re-run after a one-function edit should not pay for the whole
unit again.  This module gives each analysis unit a persistent
*incremental state* in the :class:`~repro.tool.cache.AnalysisCache`
directory, addressed by :meth:`AnalysisCache.identity_key` (the unit's
identity with the source text excluded, so an *edited* unit still finds
the state its previous run left behind).  The state carries three
things:

1. **A function-level manifest** — one content fingerprint per function
   definition (plus one for everything else: struct/typedef/global/
   prototype declarations).  Fingerprints hash the parsed AST *including
   source locations*: a change that moves code (and therefore warning
   locations) fingerprints differently, so a clean manifest diff proves
   the stored outcome's rendered warnings are still exact.  Comment and
   whitespace edits that move nothing fingerprint identically — the one
   class of edit the exact source-hash cache key misses.

2. **The eq. 4.12 input facts under stable keys** — the consistency
   query's region/parent/own/access tuples, dense-encoded against an
   entity table whose entries are *stable string keys* (kind, name,
   context, allocation-site source location) rather than run-local
   instruction uids.  Keys only need to be injective within one run;
   cross-run instability merely inflates the delta (a renamed entity
   retracts under its old key and asserts under its new one), never
   breaks correctness, because each run's encoding is self-consistent
   and the update nets to exactly the new fact set.

3. **The solved relation snapshot** — :meth:`Solution.snapshot` of the
   previous fixpoint, which :meth:`Program.resume` reconstructs without
   evaluating a single rule.  The warm path then feeds the fact *delta*
   to :meth:`Solution.update`, whose delete-rederive pass touches only
   affected strata.

Every fallback (no state, schema bump, entity table overflow, corrupt
snapshot) degrades to a cold solve behind the same interface, and the
persisted payload is *canonicalized* before storing — facts and snapshot
re-encoded against a sorted key table — so a warm incremental run leaves
byte-identical state on disk to a cold run over the same source (a
property test holds it to that).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.consistency import ConsistencyResult, consistency_from_pairs
from repro.core.datalog_check import (
    ALL_RELATIONS,
    INPUT_RELATIONS,
    ConsistencyFacts,
    extract_consistency_facts,
    make_consistency_program,
)
from repro.datalog import DatalogError, UpdateStats
from repro.lang import CompileError, parse
from repro.lang.errors import SourceLocation
from repro.lang.types import CType
from repro.lang import nodes
from repro.obs import observe
from repro.obs.metrics import MetricsRegistry
from repro.pointer import AbstractObject, PointerAnalysisResult
from repro.tool.cache import AnalysisCache
from repro.util.budget import BudgetMeter

__all__ = [
    "INCREMENTAL_SCHEMA_VERSION",
    "ManifestDiff",
    "UnitManifest",
    "IncrementalUnitSession",
    "fingerprint_decl",
    "manifest_from_source",
    "stable_entity_keys",
]

#: Bump when the state payload layout or the fingerprint serialization
#: changes (old state degrades to a cold solve, never a wrong answer).
INCREMENTAL_SCHEMA_VERSION = 1

#: Domain signature per relation, for key-space translation.
_SIGNATURE: Dict[str, Tuple[str, ...]] = dict(ALL_RELATIONS)

#: Spare entity-table slots reserved when sizing the Datalog domains, so
#: a warm run whose edit introduces a few new objects can extend the
#: stored table in place instead of falling back to a cold solve.
_HEADROOM_MIN = 16


def _headroom(count: int) -> int:
    return count + max(_HEADROOM_MIN, count // 4)


# ---------------------------------------------------------------------------
# Function fingerprints and the unit manifest
# ---------------------------------------------------------------------------


def _serialize(node: Any, parts: List[str]) -> None:
    """Flatten one AST node (or fragment) into fingerprint material.

    Source locations are *included* — a line-shifting edit must change
    the fingerprint, because stored warning text embeds ``file:line``.
    The sema-filled ``ctype`` annotation is skipped (it does not exist at
    parse time and is derived from what is already hashed).  Types render
    through ``str`` — :class:`~repro.lang.types.CType` structs can be
    recursive, and their printed form is already canonical.
    """
    if isinstance(node, CType):
        parts.append(str(node))
    elif isinstance(node, SourceLocation):
        parts.append(str(node))
    elif dataclasses.is_dataclass(node) and not isinstance(node, type):
        parts.append(type(node).__name__)
        for f in dataclasses.fields(node):
            if f.name == "ctype":
                continue
            parts.append(f.name)
            _serialize(getattr(node, f.name), parts)
    elif isinstance(node, (list, tuple)):
        parts.append(f"[{len(node)}")
        for item in node:
            _serialize(item, parts)
        parts.append("]")
    elif node is None:
        parts.append("~")
    else:
        parts.append(repr(node))


def fingerprint_decl(decl: nodes.Node) -> str:
    """Content fingerprint of one top-level declaration."""
    parts: List[str] = []
    _serialize(decl, parts)
    blob = "\x1f".join(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class ManifestDiff:
    """What changed between two manifests, at function granularity."""

    added: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()
    changed: Tuple[str, ...] = ()
    preamble_changed: bool = False

    @property
    def clean(self) -> bool:
        """True when nothing changed — the previous outcome still holds."""
        return not (
            self.added
            or self.removed
            or self.changed
            or self.preamble_changed
        )

    @property
    def functions_touched(self) -> int:
        return len(self.added) + len(self.removed) + len(self.changed)


@dataclass
class UnitManifest:
    """Per-function fingerprints for one unit's source.

    ``functions`` maps each function *definition* name to its
    fingerprint (duplicate definitions get ``name#ordinal`` keys);
    ``preamble`` fingerprints everything else in declaration order —
    structs, typedefs, globals, prototypes — whose change can affect any
    function.
    """

    preamble: str
    functions: Dict[str, str] = field(default_factory=dict)

    def diff(self, old: Optional["UnitManifest"]) -> ManifestDiff:
        """The function-level delta from ``old`` to this manifest."""
        if old is None:
            return ManifestDiff(
                added=tuple(sorted(self.functions)),
                preamble_changed=True,
            )
        added = sorted(set(self.functions) - set(old.functions))
        removed = sorted(set(old.functions) - set(self.functions))
        changed = sorted(
            name
            for name, digest in self.functions.items()
            if name in old.functions and old.functions[name] != digest
        )
        return ManifestDiff(
            added=tuple(added),
            removed=tuple(removed),
            changed=tuple(changed),
            preamble_changed=self.preamble != old.preamble,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "preamble": self.preamble,
            "functions": dict(sorted(self.functions.items())),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "UnitManifest":
        return cls(
            preamble=str(payload["preamble"]),
            functions={
                str(name): str(digest)
                for name, digest in payload["functions"].items()
            },
        )


def manifest_from_source(source: str, filename: str) -> UnitManifest:
    """Parse ``source`` and fingerprint it function by function.

    Raises :class:`~repro.lang.CompileError` on unparseable input — the
    caller treats that as "no manifest" (the pipeline will fail on the
    same input anyway).
    """
    unit = parse(source, filename)
    preamble_parts: List[str] = []
    functions: Dict[str, str] = {}
    counts: Dict[str, int] = {}
    for decl in unit.decls:
        if isinstance(decl, nodes.FuncDecl) and decl.is_definition:
            ordinal = counts.get(decl.name, 0)
            counts[decl.name] = ordinal + 1
            key = decl.name if not ordinal else f"{decl.name}#{ordinal}"
            functions[key] = fingerprint_decl(decl)
        else:
            _serialize(decl, preamble_parts)
    blob = "\x1f".join(preamble_parts).encode("utf-8")
    return UnitManifest(
        preamble=hashlib.sha256(blob).hexdigest(),
        functions=functions,
    )


# ---------------------------------------------------------------------------
# Stable entity keys
# ---------------------------------------------------------------------------


def _site_loc(module, site: int) -> str:
    """Source location of an instruction uid ("" for synthetic sites)."""
    if not site or module is None:
        return ""
    try:
        return str(module.instr(site).loc)
    except KeyError:
        return ""


def stable_entity_keys(
    entities: Iterable[AbstractObject], module
) -> Dict[AbstractObject, str]:
    """A cross-run-comparable string key per abstract object.

    The key is built from content the analysis preserves across
    unrelated edits — kind, name, context, and the allocation site's
    *source location* (never its run-local instruction uid).  Colliding
    objects get a deterministic ordinal suffix, which keeps the map
    injective within this run; that is the only property correctness
    needs (see the module docstring).
    """
    groups: Dict[str, List[AbstractObject]] = {}
    for obj in entities:
        base = (
            f"{obj.kind}|{obj.name}|{obj.ctx}|{_site_loc(module, obj.site)}"
        )
        groups.setdefault(base, []).append(obj)
    keys: Dict[AbstractObject, str] = {}
    for base, group in groups.items():
        if len(group) == 1:
            keys[group[0]] = base
        else:
            group.sort(key=lambda obj: (obj.site, str(obj)))
            for ordinal, obj in enumerate(group):
                keys[obj] = f"{base}|{ordinal}"
    return keys


def _offset_key(offset: Optional[int]) -> str:
    return "~" if offset is None else str(offset)


def _decode_offset(key: str) -> Optional[int]:
    return None if key == "~" else int(key)


def _offset_order(key: str) -> Tuple[bool, int]:
    return (key == "~", 0 if key == "~" else int(key))


# ---------------------------------------------------------------------------
# The per-unit incremental session
# ---------------------------------------------------------------------------


def _valid_state(payload: Dict[str, Any]) -> bool:
    """Shallow shape check of a loaded state payload."""
    if payload.get("schema") != INCREMENTAL_SCHEMA_VERSION:
        return False
    manifest = payload.get("manifest")
    if not isinstance(manifest, dict):
        return False
    if not isinstance(manifest.get("preamble"), str):
        return False
    if not isinstance(manifest.get("functions"), dict):
        return False
    for name in ("entities", "offsets"):
        if not isinstance(payload.get(name), list):
            return False
    for name in ("domain_o", "domain_n"):
        if not isinstance(payload.get(name), int):
            return False
    for name in ("facts", "snapshot"):
        if not isinstance(payload.get(name), dict):
            return False
    return True


class IncrementalUnitSession:
    """One unit's incremental state across a single analysis run.

    Usage::

        session = IncrementalUnitSession(cache, identity)
        diff = session.probe(source, filename)      # manifest diff
        if diff is not None and diff.clean:
            payload = session.served_outcome()       # maybe skip entirely
        ...
        report = run_regionwiz(..., incremental=session)
        session.record_outcome(outcome_payload)
        session.store()                              # or export_state()

    :meth:`check_consistency` is the pipeline hook: it replaces the
    direct :func:`~repro.core.check_consistency` call with the
    resume + delta-update path when usable state exists, and records a
    fresh (canonical) state payload either way.  Results are always
    identical to the cold path — the session only ever changes *how* the
    violating pair set is computed, never what it is.
    """

    def __init__(self, cache: AnalysisCache, identity: str) -> None:
        self.cache = cache
        self.identity = identity
        self.state: Optional[Dict[str, Any]] = None
        self.manifest: Optional[UnitManifest] = None
        self.diff: Optional[ManifestDiff] = None
        self.pending: Optional[Dict[str, Any]] = None
        self.update_stats: Optional[UpdateStats] = None
        #: "delta" | "noop" | "resolve" (warm paths) | "cold" | "served".
        self.mode: Optional[str] = None
        #: Why the warm path was abandoned, when it was.
        self.fallback_reason: Optional[str] = None
        payload = cache.lookup_state(identity)
        if payload is not None:
            if _valid_state(payload):
                self.state = payload
            else:
                cache.evict_state(identity)

    # -- manifest ----------------------------------------------------------

    def probe(self, source: str, filename: str) -> Optional[ManifestDiff]:
        """Fingerprint ``source`` and diff against the stored manifest.

        Returns ``None`` when the source does not parse (the pipeline
        will report that error itself).  Must be called before
        :meth:`check_consistency` so the stored state carries the
        current manifest.
        """
        try:
            self.manifest = manifest_from_source(source, filename)
        except CompileError:
            self.manifest = None
            self.diff = None
            return None
        old = None
        if self.state is not None:
            try:
                old = UnitManifest.from_dict(self.state["manifest"])
            except (KeyError, TypeError, AttributeError):
                old = None
        self.diff = self.manifest.diff(old)
        observe.event(
            "incremental.probe",
            identity=self.identity,
            clean=self.diff.clean,
            changed=list(self.diff.changed),
            added=list(self.diff.added),
            removed=list(self.diff.removed),
            preamble_changed=self.diff.preamble_changed,
        )
        return self.diff

    def served_outcome(self) -> Optional[Dict[str, Any]]:
        """The stored outcome payload, iff the manifest diff is clean.

        A clean diff means every function (and the preamble) parses to
        the identical AST *with identical source locations*, so the
        stored outcome — warnings, locations, fingerprints, metrics — is
        exact for the current source.
        """
        if (
            self.state is None
            or self.diff is None
            or not self.diff.clean
        ):
            return None
        outcome = self.state.get("outcome")
        if not isinstance(outcome, dict):
            return None
        self.mode = "served"
        return outcome

    # -- the consistency hook ---------------------------------------------

    def check_consistency(
        self,
        analysis: PointerAnalysisResult,
        module,
        meter: Optional[BudgetMeter] = None,
    ) -> Tuple[ConsistencyResult, Optional[UpdateStats]]:
        """Consistency via resume + delta update (or a cold solve).

        Drop-in for :func:`repro.core.check_consistency`: the returned
        result is byte-equivalent.  The second element reports the delta
        path's :class:`~repro.datalog.UpdateStats` (``None`` on a cold
        solve).
        """
        extract = extract_consistency_facts(analysis)
        keys = stable_entity_keys(extract.entities, module)
        key_to_obj = {key: obj for obj, key in keys.items()}
        keyed = self._keyed_facts(extract, keys)

        solved = None
        if self.state is not None:
            solved = self._warm(keyed, key_to_obj, meter)
        if solved is None:
            solved = self._cold(keyed, key_to_obj, meter)
        pairs, ustats = solved
        self.update_stats = ustats
        consistency = consistency_from_pairs(
            analysis, extract.hierarchy, pairs
        )
        return consistency, ustats

    @staticmethod
    def _keyed_facts(
        extract: ConsistencyFacts, keys: Dict[AbstractObject, str]
    ) -> Dict[str, Set[Tuple[str, ...]]]:
        """The input facts re-encoded over stable string keys."""
        keyed: Dict[str, Set[Tuple[str, ...]]] = {}
        for name, signature in INPUT_RELATIONS:
            out: Set[Tuple[str, ...]] = set()
            for values in extract.facts[name]:
                out.add(
                    tuple(
                        keys[extract.entities[value]]
                        if domain == "O"
                        else _offset_key(extract.offsets[value])
                        for value, domain in zip(values, signature)
                    )
                )
            keyed[name] = out
        return keyed

    def _warm(
        self,
        keyed: Dict[str, Set[Tuple[str, ...]]],
        key_to_obj: Dict[str, AbstractObject],
        meter: Optional[BudgetMeter],
    ):
        """Resume the stored fixpoint and apply the fact delta.

        Returns ``(pairs, UpdateStats)`` or ``None`` to fall back cold.
        The stored entity table is extended append-only, so the stored
        facts and snapshot stay valid in the merged encoding.
        """
        state = self.state
        assert state is not None
        entities: List[str] = [str(key) for key in state["entities"]]
        offsets: List[str] = [str(key) for key in state["offsets"]]
        entity_index = {key: i for i, key in enumerate(entities)}
        offset_index = {key: i for i, key in enumerate(offsets)}

        new_entities: Set[str] = set()
        new_offsets: Set[str] = set()
        for name, signature in INPUT_RELATIONS:
            for values in keyed[name]:
                for value, domain in zip(values, signature):
                    if domain == "O":
                        if value not in entity_index:
                            new_entities.add(value)
                    elif value not in offset_index:
                        new_offsets.add(value)
        for key in sorted(new_entities):
            entity_index[key] = len(entities)
            entities.append(key)
        for key in sorted(new_offsets, key=_offset_order):
            offset_index[key] = len(offsets)
            offsets.append(key)

        domain_o = state["domain_o"]
        domain_n = state["domain_n"]
        if len(entities) > domain_o or len(offsets) > domain_n:
            self.fallback_reason = "domain-overflow"
            return None

        try:
            stored_facts = {
                name: {tuple(values) for values in state["facts"][name]}
                for name, _ in INPUT_RELATIONS
            }
            new_facts = {
                name: self._encode(
                    keyed[name], signature, entity_index, offset_index
                )
                for name, signature in INPUT_RELATIONS
            }
        except (KeyError, TypeError, ValueError):
            self._drop_state("corrupt-state")
            return None

        asserted = {
            name: new_facts[name] - stored_facts[name]
            for name, _ in INPUT_RELATIONS
        }
        retracted = {
            name: stored_facts[name] - new_facts[name]
            for name, _ in INPUT_RELATIONS
        }

        program = make_consistency_program(domain_o, domain_n)
        try:
            for name, tuples in stored_facts.items():
                for values in tuples:
                    program.fact(name, *values)
            solution = program.resume(
                {
                    name: [tuple(values) for values in rows]
                    for name, rows in state["snapshot"].items()
                },
                meter=meter,
            )
            ustats = solution.update(
                asserted=asserted, retracted=retracted, meter=meter
            )
            snapshot = solution.snapshot()
            pairs = {
                (
                    key_to_obj[entities[source]],
                    _decode_offset(offsets[offset]),
                    key_to_obj[entities[target]],
                )
                for source, offset, target in solution.tuples("objectPair")
            }
            keyed_snapshot = self._snapshot_to_keys(
                snapshot, entities, offsets
            )
        except DatalogError:
            self._drop_state("corrupt-state")
            return None
        except (KeyError, IndexError):
            # A decoded entity fell outside the current run's key map or
            # table: the stored state disagrees with this run's universe
            # in a way the delta could not reconcile.
            self._drop_state("decode-mismatch")
            return None

        self.mode = ustats.mode
        self.pending = self._canonical_payload(keyed, keyed_snapshot)
        observe.event(
            "incremental.update",
            identity=self.identity,
            mode=ustats.mode,
            facts_asserted=ustats.facts_asserted,
            facts_retracted=ustats.facts_retracted,
            strata_skipped=ustats.strata_skipped,
            tuples_deleted=ustats.tuples_deleted,
            tuples_inserted=ustats.tuples_inserted,
        )
        return pairs, ustats

    def _cold(
        self,
        keyed: Dict[str, Set[Tuple[str, ...]]],
        key_to_obj: Dict[str, AbstractObject],
        meter: Optional[BudgetMeter],
    ):
        """Full solve from scratch over the canonical key table."""
        entities, offsets = self._canonical_tables(keyed, {})
        entity_index = {key: i for i, key in enumerate(entities)}
        offset_index = {key: i for i, key in enumerate(offsets)}
        program = make_consistency_program(
            _headroom(len(entities)), _headroom(len(offsets))
        )
        for name, signature in INPUT_RELATIONS:
            for values in self._encode(
                keyed[name], signature, entity_index, offset_index
            ):
                program.fact(name, *values)
        solution = program.solve(meter=meter)
        pairs = {
            (
                key_to_obj[entities[source]],
                _decode_offset(offsets[offset]),
                key_to_obj[entities[target]],
            )
            for source, offset, target in solution.tuples("objectPair")
        }
        keyed_snapshot = self._snapshot_to_keys(
            solution.snapshot(), entities, offsets
        )
        self.mode = "cold"
        self.pending = self._canonical_payload(keyed, keyed_snapshot)
        observe.event(
            "incremental.cold",
            identity=self.identity,
            reason=self.fallback_reason or "no-state",
        )
        return pairs, None

    # -- encoding helpers --------------------------------------------------

    @staticmethod
    def _encode(
        tuples: Iterable[Tuple[str, ...]],
        signature: Tuple[str, ...],
        entity_index: Dict[str, int],
        offset_index: Dict[str, int],
    ) -> Set[Tuple[int, ...]]:
        return {
            tuple(
                entity_index[value] if domain == "O" else offset_index[value]
                for value, domain in zip(values, signature)
            )
            for values in tuples
        }

    @staticmethod
    def _snapshot_to_keys(
        snapshot: Dict[str, List[Tuple[int, ...]]],
        entities: List[str],
        offsets: List[str],
    ) -> Dict[str, Set[Tuple[str, ...]]]:
        keyed: Dict[str, Set[Tuple[str, ...]]] = {}
        for name, signature in ALL_RELATIONS:
            keyed[name] = {
                tuple(
                    entities[value] if domain == "O" else offsets[value]
                    for value, domain in zip(values, signature)
                )
                for values in snapshot.get(name, ())
            }
        return keyed

    @staticmethod
    def _canonical_tables(
        keyed_facts: Dict[str, Set[Tuple[str, ...]]],
        keyed_snapshot: Dict[str, Set[Tuple[str, ...]]],
    ) -> Tuple[List[str], List[str]]:
        """Sorted entity/offset key tables covering facts and snapshot."""
        entity_keys: Set[str] = set()
        offset_keys: Set[str] = set()
        for source in (keyed_facts, keyed_snapshot):
            for name, tuples in source.items():
                signature = _SIGNATURE[name]
                for values in tuples:
                    for value, domain in zip(values, signature):
                        if domain == "O":
                            entity_keys.add(value)
                        else:
                            offset_keys.add(value)
        return (
            sorted(entity_keys),
            sorted(offset_keys, key=_offset_order),
        )

    def _canonical_payload(
        self,
        keyed_facts: Dict[str, Set[Tuple[str, ...]]],
        keyed_snapshot: Dict[str, Set[Tuple[str, ...]]],
    ) -> Dict[str, Any]:
        """The state payload, re-encoded over the canonical key table.

        Canonicalization is what makes a warm run's persisted state
        byte-identical to a cold run's: the payload depends only on the
        manifest, the keyed facts, and the keyed fixpoint — all of which
        are path-independent — never on the append order the warm path
        grew its in-memory table in.
        """
        entities, offsets = self._canonical_tables(
            keyed_facts, keyed_snapshot
        )
        entity_index = {key: i for i, key in enumerate(entities)}
        offset_index = {key: i for i, key in enumerate(offsets)}
        facts = {
            name: sorted(
                list(values)
                for values in self._encode(
                    keyed_facts[name], signature, entity_index, offset_index
                )
            )
            for name, signature in INPUT_RELATIONS
        }
        snapshot = {
            name: sorted(
                list(values)
                for values in self._encode(
                    keyed_snapshot[name],
                    signature,
                    entity_index,
                    offset_index,
                )
            )
            for name, signature in ALL_RELATIONS
        }
        return {
            "schema": INCREMENTAL_SCHEMA_VERSION,
            "manifest": (
                self.manifest.to_dict() if self.manifest is not None else None
            ),
            "entities": entities,
            "offsets": offsets,
            "domain_o": _headroom(len(entities)),
            "domain_n": _headroom(len(offsets)),
            "facts": facts,
            "snapshot": snapshot,
            "outcome": None,
        }

    def _drop_state(self, reason: str) -> None:
        self.cache.evict_state(self.identity)
        self.state = None
        self.fallback_reason = reason
        observe.event(
            "incremental.fallback", identity=self.identity, reason=reason
        )

    # -- persistence -------------------------------------------------------

    def record_outcome(self, outcome: Optional[Dict[str, Any]]) -> None:
        """Attach the unit's outcome payload to the pending state."""
        if self.pending is not None:
            self.pending["outcome"] = outcome

    def export_state(self) -> Optional[Dict[str, Any]]:
        """The pending payload for a deferred (parent-side) store.

        ``None`` when there is nothing sound to persist — the pipeline
        never reached the consistency phase, or :meth:`probe` never saw
        a parseable manifest (state without a manifest could not be
        diffed next run).
        """
        if self.pending is None or self.manifest is None:
            return None
        return self.pending

    def store(self) -> bool:
        """Persist the pending state now (single-process callers)."""
        payload = self.export_state()
        if payload is None:
            return False
        self.cache.store_state(self.identity, payload)
        return True

    # -- telemetry ---------------------------------------------------------

    def record_metrics(self, registry: MetricsRegistry) -> None:
        """Fold session telemetry into a run's metrics registry."""
        if self.diff is not None:
            registry.gauge(
                "incremental.functions_changed", self.diff.functions_touched
            )
            registry.gauge(
                "incremental.preamble_changed",
                1 if self.diff.preamble_changed else 0,
            )
        if self.mode is not None:
            registry.gauge(
                "incremental.warm", 1 if self.mode != "cold" else 0
            )
        ustats = self.update_stats
        if ustats is not None:
            registry.gauge("incremental.update_ms", ustats.seconds * 1000.0)
            registry.gauge(
                "incremental.facts_asserted", ustats.facts_asserted
            )
            registry.gauge(
                "incremental.facts_retracted", ustats.facts_retracted
            )
            registry.gauge(
                "incremental.strata_skipped", ustats.strata_skipped
            )
            registry.gauge(
                "incremental.tuples_deleted", ustats.tuples_deleted
            )
            registry.gauge(
                "incremental.tuples_inserted", ustats.tuples_inserted
            )
