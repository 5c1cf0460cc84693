"""A bddbddb-style Datalog solver with set and BDD backends.

A :class:`Program` is declarative: declare finite domains, relation
signatures, rules (text or :class:`~repro.datalog.rules.Rule`), and input
facts, then call :meth:`Program.solve`.  Evaluation is stratified
semi-naive fixpoint computation.  The ``backend`` argument picks tuple
storage: ``"set"`` (explicit, fast in CPython) or ``"bdd"``
(BuDDy/bddbddb-style; used by RegionWiz's context-sensitive relations and
by the variable-order ablation).

Both backends produce identical relations -- a property test holds them to
that.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bdd import BDD, DomainInstance, DomainSpace
from repro.datalog.relation import (
    BddRelation,
    LegacySetRelation,
    Relation,
    RelationError,
    SetRelation,
)
from repro.datalog.rules import (
    Atom,
    BodyItem,
    Const,
    DatalogSyntaxError,
    NotEqual,
    Rule,
    Var,
    parse_rules,
)
from repro.obs import observe
from repro.util.budget import BudgetMeter
from repro.util.graph import strongly_connected_components

__all__ = [
    "Program",
    "Solution",
    "DatalogError",
    "Derivation",
    "SolverStats",
    "StratumStats",
    "UpdateStats",
]


class DatalogError(Exception):
    """Semantic errors: unknown relations, domain mismatches, bad strata."""


# ---------------------------------------------------------------------------
# Solver statistics
# ---------------------------------------------------------------------------


@dataclass
class StratumStats:
    """Observability counters for one stratum of the fixpoint."""

    relations: Tuple[str, ...]
    rounds: int = 0
    derived: int = 0
    seconds: float = 0.0


@dataclass
class SolverStats:
    """Where :meth:`Program.solve` spent its time, exposed on ``Solution``.

    ``index_builds``/``index_hits`` cover the set backend's hash indexes
    (including the per-round delta relations); ``bdd_cache_lookups``/
    ``bdd_cache_hits`` cover the BDD manager's operation caches.  The
    invariant ``facts_loaded + tuples_derived == sum of final relation
    sizes`` holds on both backends and is property-tested.
    """

    backend: str
    engine: str = "indexed"
    facts_loaded: int = 0
    tuples_derived: int = 0
    rounds: int = 0
    rule_evals: int = 0
    rule_eval_seconds: float = 0.0
    index_builds: int = 0
    index_hits: int = 0
    bdd_cache_lookups: int = 0
    bdd_cache_hits: int = 0
    solve_seconds: float = 0.0
    updates: int = 0
    update_seconds: float = 0.0
    strata_skipped: int = 0
    strata: List[StratumStats] = field(default_factory=list)
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    rule_derived: Dict[str, int] = field(default_factory=dict)

    @property
    def index_hit_rate(self) -> float:
        probes = self.index_builds + self.index_hits
        return self.index_hits / probes if probes else 0.0

    @property
    def bdd_cache_hit_rate(self) -> float:
        if not self.bdd_cache_lookups:
            return 0.0
        return self.bdd_cache_hits / self.bdd_cache_lookups

    def slowest_rules(self, limit: int = 3) -> List[Tuple[str, float]]:
        ranked = sorted(
            self.rule_seconds.items(), key=lambda item: -item[1]
        )
        return ranked[:limit]

    def summary(self) -> str:
        """Human-readable multi-line account of the solve."""
        lines = [
            f"datalog solve: backend={self.backend} engine={self.engine}"
            f" {self.solve_seconds * 1000:.1f}ms",
            f"  facts loaded: {self.facts_loaded};"
            f" tuples derived: {self.tuples_derived};"
            f" {self.rounds} round(s) across {len(self.strata)} strat(a)",
            f"  rule evaluations: {self.rule_evals}"
            f" ({self.rule_eval_seconds * 1000:.1f}ms)",
        ]
        if self.backend == "set":
            lines.append(
                f"  index builds: {self.index_builds},"
                f" hits: {self.index_hits}"
                f" ({self.index_hit_rate * 100:.1f}% hit rate)"
            )
        else:
            lines.append(
                f"  BDD op-cache: {self.bdd_cache_hits}/"
                f"{self.bdd_cache_lookups} hits"
                f" ({self.bdd_cache_hit_rate * 100:.1f}% hit rate)"
            )
        for i, stratum in enumerate(self.strata):
            names = ", ".join(stratum.relations)
            lines.append(
                f"  stratum {i} [{names}]: {stratum.rounds} round(s),"
                f" {stratum.derived} tuple(s),"
                f" {stratum.seconds * 1000:.1f}ms"
            )
        slowest = self.slowest_rules()
        if slowest:
            lines.append("  slowest rules:")
            for text, seconds in slowest:
                lines.append(f"    {seconds * 1000:8.1f}ms  {text}")
        return "\n".join(lines)


@dataclass
class UpdateStats:
    """Account of one :meth:`Solution.update` call.

    ``mode`` is ``"delta"`` when the indexed set engine ran its
    delete-rederive (DRed) pass, ``"resolve"`` when the backend fell back
    to a full re-solve (legacy/bdd engines and provenance-recording
    solutions), and ``"noop"`` when the requested fact delta was empty
    after netting against the currently-asserted facts.
    """

    mode: str = "noop"
    facts_asserted: int = 0
    facts_retracted: int = 0
    strata_total: int = 0
    strata_skipped: int = 0
    tuples_deleted: int = 0
    tuples_inserted: int = 0
    rederived: int = 0
    rounds: int = 0
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# Derivation provenance
# ---------------------------------------------------------------------------

#: A grounded tuple reference: (relation name, values).
ProvKey = Tuple[str, Tuple[int, ...]]


@dataclass
class Derivation:
    """One node of a derivation tree for a derived tuple.

    ``rule is None`` marks a leaf: an input fact (``is_fact``) or a tuple
    whose derivation was not recorded (solving without ``provenance=True``
    never records any).  Children cover the rule's *positive* body atoms
    in body order; negated atoms and disequalities hold by absence and
    are reconstructed from ``rule`` by renderers.
    """

    relation: str
    values: Tuple[int, ...]
    rule: Optional[Rule] = None
    children: List["Derivation"] = field(default_factory=list)
    is_fact: bool = False

    @property
    def depth(self) -> int:
        return 1 + max((child.depth for child in self.children), default=0)

    def leaves(self) -> List["Derivation"]:
        if not self.children:
            return [self]
        found: List["Derivation"] = []
        for child in self.children:
            found.extend(child.leaves())
        return found


@dataclass
class _RelationDecl:
    name: str
    domains: Tuple[str, ...]
    is_input: bool = True  # flipped off once it appears in a rule head


class Program:
    """Declarative Datalog program over finite domains."""

    def __init__(
        self,
        backend: str = "set",
        ordering: str = "interleaved",
        engine: str = "indexed",
    ) -> None:
        if backend not in ("set", "bdd"):
            raise DatalogError(f"unknown backend {backend!r}")
        if engine not in ("indexed", "legacy"):
            raise DatalogError(f"unknown set engine {engine!r}")
        if backend == "bdd" and engine != "indexed":
            raise DatalogError("the bdd backend has no legacy engine")
        self.backend = backend
        self.ordering = ordering
        self.engine = engine
        self._domains: Dict[str, int] = {}
        self._relations: Dict[str, _RelationDecl] = {}
        self._rules: List[Rule] = []
        self._facts: Dict[str, Set[Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def domain(self, name: str, size: int) -> None:
        """Declare a finite domain with values ``0..size-1``."""
        if name in self._domains:
            raise DatalogError(f"domain {name!r} already declared")
        if size < 1:
            raise DatalogError(f"domain {name!r} must be non-empty")
        self._domains[name] = size

    def relation(self, name: str, domains: Sequence[str]) -> None:
        """Declare a relation signature, e.g. ``("call", ["I", "F"])``."""
        if name in self._relations:
            raise DatalogError(f"relation {name!r} already declared")
        for domain in domains:
            if domain not in self._domains:
                raise DatalogError(
                    f"relation {name!r} uses undeclared domain {domain!r}"
                )
        self._relations[name] = _RelationDecl(name, tuple(domains))
        self._facts[name] = set()

    def rules(self, text: str) -> None:
        """Add rules from concrete syntax (see :mod:`repro.datalog.rules`)."""
        for rule in parse_rules(text):
            self.rule(rule)

    def rule(self, rule: Rule) -> None:
        self._check_rule(rule)
        if rule.is_fact:
            for term in rule.head.terms:
                if isinstance(term, Var):
                    raise DatalogError(
                        f"fact with unbound variable {term}: {rule}"
                    )
            values = tuple(
                term.value  # type: ignore[union-attr]
                for term in rule.head.terms
            )
            self.fact(rule.head.relation, *values)
            return
        self._relations[rule.head.relation].is_input = False
        self._rules.append(rule)

    def fact(self, name: str, *values: int) -> None:
        """Assert an input tuple."""
        decl = self._decl(name)
        if len(values) != len(decl.domains):
            raise DatalogError(
                f"fact {name}{values} has arity {len(values)},"
                f" expected {len(decl.domains)}"
            )
        for value, domain in zip(values, decl.domains):
            if not 0 <= value < self._domains[domain]:
                raise DatalogError(
                    f"fact {name}{values}: {value} out of range for"
                    f" domain {domain} (size {self._domains[domain]})"
                )
        self._facts[name].add(tuple(values))

    def _decl(self, name: str) -> _RelationDecl:
        decl = self._relations.get(name)
        if decl is None:
            raise DatalogError(f"unknown relation {name!r}")
        return decl

    # ------------------------------------------------------------------
    # Static checks
    # ------------------------------------------------------------------

    def _check_rule(self, rule: Rule) -> None:
        var_domains: Dict[Var, str] = {}
        for atom in itertools.chain([rule.head], rule.body):
            if isinstance(atom, NotEqual):
                continue
            decl = self._decl(atom.relation)
            if len(atom.terms) != len(decl.domains):
                raise DatalogError(
                    f"atom {atom} has arity {len(atom.terms)},"
                    f" {atom.relation} expects {len(decl.domains)}"
                )
            for term, domain in zip(atom.terms, decl.domains):
                if isinstance(term, Const):
                    if not 0 <= term.value < self._domains[domain]:
                        raise DatalogError(
                            f"constant {term.value} out of range for domain"
                            f" {domain} in {atom}"
                        )
                else:
                    bound = var_domains.setdefault(term, domain)
                    if bound != domain:
                        raise DatalogError(
                            f"variable {term} used at domains {bound} and"
                            f" {domain} in rule {rule}"
                        )
        for constraint in rule.constraints():
            left = var_domains.get(constraint.left)
            right = var_domains.get(constraint.right)
            if left is None or right is None or left != right:
                raise DatalogError(
                    f"disequality {constraint} over mismatched or unknown"
                    f" domains in rule {rule}"
                )

    def _stratify(self) -> List[List[Rule]]:
        """Group rules into strata; reject negation inside a cycle."""
        depends: Dict[str, Set[str]] = {name: set() for name in self._relations}
        negative_edges: Set[Tuple[str, str]] = set()
        for rule in self._rules:
            head = rule.head.relation
            for item in rule.body:
                if isinstance(item, NotEqual):
                    continue
                depends[head].add(item.relation)
                if item.negated:
                    negative_edges.add((head, item.relation))
        components = strongly_connected_components(depends)
        component_of: Dict[str, int] = {}
        for i, component in enumerate(components):
            for name in component:
                component_of[name] = i
        for head, body_rel in negative_edges:
            if component_of[head] == component_of[body_rel]:
                raise DatalogError(
                    f"program is not stratified: {head} negates {body_rel}"
                    f" inside a recursive component"
                )
        # Tarjan emits dependencies first, so assigning rules to the
        # component of their head and walking components in order is a
        # valid stratified schedule.
        strata: List[List[Rule]] = [[] for _ in components]
        for rule in self._rules:
            strata[component_of[rule.head.relation]].append(rule)
        return [stratum for stratum in strata if stratum]

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(
        self,
        meter: Optional[BudgetMeter] = None,
        provenance: bool = False,
    ) -> "Solution":
        """Evaluate to fixpoint and return the resulting relation store.

        ``meter`` (a started :class:`~repro.util.budget.BudgetMeter`)
        adds cooperative checkpoints to every fixpoint round: the wall
        clock is checked per round and every derived tuple is charged
        against the budget's ``max_derived_tuples`` limit, raising a
        structured ``BudgetExceeded`` on a blowup.

        ``provenance=True`` (indexed set engine only) records, for every
        derived tuple, the rule and the positive body tuples of its first
        derivation; :meth:`Solution.explain` walks those records into a
        :class:`Derivation` tree.  Recording costs time and memory
        proportional to the derived tuple count, so it is off by default
        and enabled per-query (the CLI's ``--explain``).
        """
        if provenance and (self.backend != "set" or self.engine != "indexed"):
            raise DatalogError(
                "provenance recording requires the indexed set engine"
            )
        started = time.perf_counter()
        strata = self._stratify()
        if self.backend == "set":
            if self.engine == "legacy":
                store: _Store = _LegacySetStore(self)
            else:
                store = _SetStore(self)
        else:
            store = _BddStore(self)
        store.meter = meter
        if provenance:
            store.provenance = {}
            store.fact_keys = set()
        with observe.span("datalog.solve") as span:
            for name, facts in self._facts.items():
                store.load_facts(name, facts)
            for stratum in strata:
                store.run_stratum(stratum)
            store.finalize_stats()
            span.set(
                backend=self.backend,
                engine=self.engine,
                facts=store.stats.facts_loaded,
                derived=store.stats.tuples_derived,
                rounds=store.stats.rounds,
            )
        store.stats.solve_seconds = time.perf_counter() - started
        return Solution(self, store)

    def resume(
        self,
        relations: Dict[str, Iterable[Tuple[int, ...]]],
        meter: Optional[BudgetMeter] = None,
    ) -> "Solution":
        """Reconstruct a :class:`Solution` from a saved relation snapshot.

        ``relations`` maps relation names to their *full* contents (base
        facts included) at a previously-reached fixpoint of this program's
        rules over its currently-asserted facts — typically a persisted
        :meth:`Solution.snapshot`.  The snapshot is trusted to be that
        fixpoint: no rules are evaluated, so a snapshot produced by a
        different program or fact set silently yields wrong answers.
        Callers that persist snapshots must content-address them against
        the program identity (the incremental analysis state store does).

        Tuples are still arity- and domain-checked so a truncated or
        corrupted snapshot raises :class:`DatalogError` instead of
        poisoning later queries.  Only the indexed set engine can resume —
        it is the engine with the :meth:`Solution.update` delta path that
        makes resuming worthwhile.
        """
        if self.backend != "set" or self.engine != "indexed":
            raise DatalogError("resume requires the indexed set engine")
        started = time.perf_counter()
        store = _SetStore(self)
        store.meter = meter
        for name in relations:
            self._decl(name)
        for name, decl in self._relations.items():
            relation = store.relation(name)
            for values in relations.get(name, ()):
                values = tuple(values)
                if len(values) != len(decl.domains):
                    raise DatalogError(
                        f"snapshot {name}{values} has arity {len(values)},"
                        f" expected {len(decl.domains)}"
                    )
                for value, domain in zip(values, decl.domains):
                    if not 0 <= value < self._domains[domain]:
                        raise DatalogError(
                            f"snapshot {name}{values}: {value} out of range"
                            f" for domain {domain}"
                        )
                relation.add(values)
        total = sum(len(store.relation(name)) for name in self._relations)
        loaded = sum(
            len(self._facts[name] & set(store.relation(name)))
            for name in self._relations
        )
        store.stats.facts_loaded = loaded
        store.stats.tuples_derived = total - loaded
        store.stats.solve_seconds = time.perf_counter() - started
        return Solution(self, store)


class Solution:
    """Queryable result of :meth:`Program.solve`."""

    def __init__(self, program: Program, store: "_Store") -> None:
        self._program = program
        self._store = store

    def relation(self, name: str) -> Relation:
        return self._store.relation(name)

    def tuples(self, name: str) -> Set[Tuple[int, ...]]:
        return set(self._store.relation(name))

    def count(self, name: str) -> int:
        return len(self._store.relation(name))

    def snapshot(self) -> Dict[str, List[Tuple[int, ...]]]:
        """Sorted contents of every relation, base facts included.

        The output round-trips through :meth:`Program.resume`: feeding it
        to an identically-declared program holding the same asserted facts
        reconstructs this solution without re-running any rule.  Sorting
        makes the snapshot deterministic, so persisted forms are
        byte-stable across runs and safe to content-address.
        """
        return {
            name: sorted(self._store.relation(name))
            for name in self._program._relations
        }

    def __contains__(self, query: Tuple[str, Tuple[int, ...]]) -> bool:
        name, values = query
        return tuple(values) in self._store.relation(name)

    @property
    def stats(self) -> SolverStats:
        """Observability counters gathered while solving."""
        return self._store.stats

    def update(
        self,
        asserted: Optional[Dict[str, Iterable[Tuple[int, ...]]]] = None,
        retracted: Optional[Dict[str, Iterable[Tuple[int, ...]]]] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> UpdateStats:
        """Apply a base-fact delta and bring every relation to the new
        fixpoint without re-deriving unaffected strata.

        ``retracted`` facts are removed first, then ``asserted`` facts are
        added; the effective delta is netted against the program's
        currently-asserted facts (retracting an absent fact or asserting a
        present one is a no-op).  On the indexed set engine the store runs
        a delete-rederive (DRed) pass per affected stratum — overdelete
        everything whose recorded support touches a deleted tuple (or a
        tuple newly added under a negated atom), physically remove, then
        rederive survivors and propagate insertions through the existing
        semi-naive delta path — and *skips* strata whose rules mention no
        changed relation.  Stratified negation stays sound because negated
        atoms always refer to relations finalized in lower strata, so each
        stratum sees its negated inputs at their new fixpoint.

        The legacy set engine, the BDD backend, and provenance-recording
        solutions fall back to a full re-solve behind the same interface
        (``mode="resolve"`` in the returned :class:`UpdateStats`); results
        are identical on every path, which the incremental ≡ full property
        test holds them to.

        The program's rules and declarations must not have changed since
        the original solve.
        """
        program = self._program
        started = time.perf_counter()
        ustats = UpdateStats()
        eff_add: Dict[str, Set[Tuple[int, ...]]] = {}
        eff_del: Dict[str, Set[Tuple[int, ...]]] = {}
        names = set(asserted or ()) | set(retracted or ())
        # Validate the entire delta before touching ``program._facts`` so a
        # rejected update leaves the solution and the asserted facts
        # consistent (no partial mutation on error).
        normalized: Dict[str, Tuple[Set[Tuple[int, ...]],
                                    Set[Tuple[int, ...]]]] = {}
        for name in sorted(names):
            decl = program._decl(name)
            removes = {tuple(t) for t in (retracted or {}).get(name, ())}
            adds = {tuple(t) for t in (asserted or {}).get(name, ())}
            for values in removes | adds:
                if len(values) != len(decl.domains):
                    raise DatalogError(
                        f"update {name}{values} has arity {len(values)},"
                        f" expected {len(decl.domains)}"
                    )
            for values in adds:
                for value, domain in zip(values, decl.domains):
                    if not 0 <= value < program._domains[domain]:
                        raise DatalogError(
                            f"update {name}{values}: {value} out of range"
                            f" for domain {domain}"
                        )
            normalized[name] = (removes, adds)
        for name, (removes, adds) in normalized.items():
            old = program._facts[name]
            new = (old - removes) | adds
            if new != old:
                eff_add[name] = new - old
                eff_del[name] = old - new
                program._facts[name] = new
        ustats.facts_asserted = sum(len(v) for v in eff_add.values())
        ustats.facts_retracted = sum(len(v) for v in eff_del.values())
        if not eff_add and not eff_del:
            ustats.seconds = time.perf_counter() - started
            return ustats
        store = self._store
        if type(store) is _SetStore and store.provenance is None:
            if meter is not None:
                store.meter = meter
            strata = program._stratify()
            ustats.mode = "delta"
            ustats.strata_total = len(strata)
            with observe.span("datalog.update") as span:
                store.apply_update(strata, program._facts, eff_add, eff_del,
                                   ustats)
                span.set(
                    asserted=ustats.facts_asserted,
                    retracted=ustats.facts_retracted,
                    skipped=ustats.strata_skipped,
                    deleted=ustats.tuples_deleted,
                    inserted=ustats.tuples_inserted,
                )
        else:
            fresh = program.solve(meter=meter, provenance=self.has_provenance)
            self._store = fresh._store
            ustats.mode = "resolve"
        ustats.seconds = time.perf_counter() - started
        self._store.stats.updates += 1
        self._store.stats.update_seconds += ustats.seconds
        self._store.stats.strata_skipped += ustats.strata_skipped
        return ustats

    @property
    def has_provenance(self) -> bool:
        """Whether the solve recorded derivations (``provenance=True``)."""
        return self._store.provenance is not None

    def explain(self, name: str, values: Tuple[int, ...]) -> Derivation:
        """The recorded derivation tree for one tuple.

        Facts come back as ``is_fact`` leaves; derived tuples carry the
        rule of their first derivation and its positive body tuples as
        children.  Tuples absent from the relation (or solved without
        ``provenance=True``) come back as bare leaves with no rule.
        Shared sub-derivations are memoized, so the tree is linear in the
        number of distinct tuples it mentions; first-derivation recording
        guarantees acyclicity (a derivation only references tuples
        inserted strictly earlier).
        """
        key: ProvKey = (name, tuple(values))
        cache: Dict[ProvKey, Derivation] = {}
        provenance = self._store.provenance or {}
        fact_keys = self._store.fact_keys or set()

        def walk(key: ProvKey) -> Derivation:
            cached = cache.get(key)
            if cached is not None:
                return cached
            relation, tup = key
            if key in fact_keys:
                node = Derivation(relation, tup, is_fact=True)
            elif key in provenance:
                rule, body = provenance[key]
                node = Derivation(relation, tup, rule=rule)
                cache[key] = node  # memo before recursion (acyclic anyway)
                node.children = [
                    walk((body_rel, body_values))
                    for _, body_rel, body_values in sorted(body)
                ]
            else:
                node = Derivation(relation, tup)
            cache[key] = node
            return node

        return walk(key)

    @property
    def bdd(self) -> Optional[BDD]:
        """The underlying BDD manager (None for the set backend)."""
        return getattr(self._store, "bdd", None)

    def bdd_node_count(self, name: str) -> int:
        """Nodes in a relation's BDD (0 for the set backend)."""
        relation = self._store.relation(name)
        if isinstance(relation, BddRelation):
            return relation.bdd.node_count(relation.node)
        return 0


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


class _Store:
    stats: SolverStats
    #: Optional budget meter; set by :meth:`Program.solve` before facts load.
    meter: Optional[BudgetMeter] = None
    #: Derivation records, (head name, tuple) -> (rule, body tuple refs);
    #: allocated by :meth:`Program.solve` when ``provenance=True``.
    provenance: Optional[Dict[ProvKey, Tuple[Rule, tuple]]] = None
    #: Input-fact keys, tracked only while recording provenance.
    fact_keys: Optional[Set[ProvKey]] = None

    def relation(self, name: str) -> Relation:
        raise NotImplementedError

    def load_facts(self, name: str, facts: Iterable[Tuple[int, ...]]) -> None:
        relation = self.relation(name)
        before = len(relation)
        relation.add_all(facts)
        self.stats.facts_loaded += len(relation) - before
        if self.fact_keys is not None:
            self.fact_keys.update((name, values) for values in facts)

    def run_stratum(self, rules: List[Rule]) -> None:
        raise NotImplementedError

    def finalize_stats(self) -> None:
        """Fold backend-owned counters into :attr:`stats` after solving."""


@dataclass
class _JoinStep:
    """One positive atom of a rule body, compiled for the join loop.

    Variables are compiled to integer slots in a flat environment list,
    so the innermost loop never hashes :class:`Var` objects.

    ``key_positions``/``key_template`` describe the bound columns probed
    through the relation index (constants are pre-filled in the template,
    variable slots are copied in via ``key_slots`` right before the
    probe).  ``bind_positions`` maps columns binding fresh variables to
    their env slots; ``same_positions`` pairs columns that must agree
    because the atom repeats a fresh variable.  ``checks`` are compiled
    negated atoms / disequalities whose variables are all bound once this
    step has matched -- evaluated here, not at the end, so failing
    branches are pruned as early as possible.  Each check is a tuple
    ``(neg_tuples, neg_template, neg_fill, slot_a, slot_b)``: when
    ``neg_tuples`` is None the check is ``env[slot_a] != env[slot_b]``,
    otherwise fill ``neg_template`` via ``neg_fill`` and require the
    tuple to be absent from ``neg_tuples``.
    """

    body_index: int
    relation_name: str
    key_positions: Tuple[int, ...]
    key_template: List[Optional[int]]
    key_slots: List[Tuple[int, int]]
    bind_positions: List[Tuple[int, int]]
    same_positions: List[Tuple[int, int]]
    checks: List[tuple]


class _SetStore(_Store):
    """Semi-naive evaluation over explicit tuple sets.

    Three things distinguish it from the textbook evaluator (preserved in
    :class:`_LegacySetStore` for benchmarking):

    * relations keep their hash indexes incrementally up to date across
      the insert/lookup interleaving of semi-naive rounds;
    * the per-round delta is itself an indexed :class:`SetRelation`, so
      joins against the delta use hash probes instead of linear scans;
    * a join planner orders each rule's positive atoms by estimated
      selectivity (most bound columns first, smallest relation next,
      delta atom always first) and evaluates negation/disequality checks
      at the earliest point their variables are bound.
    """

    def __init__(self, program: Program) -> None:
        self._relations: Dict[str, SetRelation] = {
            name: SetRelation(name, decl.domains)
            for name, decl in program._relations.items()
        }
        self.stats = SolverStats(backend="set", engine="indexed")

    def relation(self, name: str) -> SetRelation:
        return self._relations[name]

    def finalize_stats(self) -> None:
        for relation in self._relations.values():
            self._retire_counters(relation)

    def _retire_counters(self, relation: SetRelation) -> None:
        self.stats.index_builds += relation.index_builds
        self.stats.index_hits += relation.index_hits
        relation.index_builds = 0
        relation.index_hits = 0

    def _fresh_delta(
        self, name: str, tuples: Iterable[Tuple[int, ...]]
    ) -> SetRelation:
        source = self._relations[name]
        delta = SetRelation(source.name, source.domains)
        delta.add_all(tuples)
        return delta

    def run_stratum(self, rules: List[Rule]) -> None:
        with observe.span("datalog.stratum") as span:
            self._run_stratum(rules, span)

    def _run_stratum(self, rules: List[Rule], span) -> None:
        started = time.perf_counter()
        heads = {rule.head.relation for rule in rules}
        stratum = StratumStats(relations=tuple(sorted(heads)))
        span.set(relations=",".join(stratum.relations))
        self.stats.strata.append(stratum)
        # Delta = everything currently in the stratum's head relations
        # (facts and contributions from earlier strata), stored as an
        # indexed relation so delta joins are hash probes.
        delta: Dict[str, SetRelation] = {
            name: self._fresh_delta(name, self._relations[name])
            for name in heads
        }
        # First round must also run rules whose body has no atom in this
        # stratum (e.g. copies from lower strata).
        stratum.rounds = 1
        for rule in rules:
            fresh = self._eval_rule(rule, delta_atom=None, delta=None)
            head = self._relations[rule.head.relation]
            added = 0
            for values in fresh:
                if head.insert_new(values):
                    delta[rule.head.relation].insert_new(values)
                    added += 1
            self._count_derived(rule, added, stratum)
        while any(not rel.is_empty() for rel in delta.values()):
            if self.meter is not None:
                self.meter.checkpoint("datalog")
            stratum.rounds += 1
            new_delta: Dict[str, SetRelation] = {
                name: self._fresh_delta(name, ()) for name in heads
            }
            for rule in rules:
                positions = [
                    i
                    for i, item in enumerate(rule.body)
                    if isinstance(item, Atom)
                    and not item.negated
                    and item.relation in heads
                ]
                for position in positions:
                    atom = rule.body[position]
                    assert isinstance(atom, Atom)
                    if delta[atom.relation].is_empty():
                        continue
                    fresh = self._eval_rule(
                        rule, delta_atom=position, delta=delta[atom.relation]
                    )
                    head = self._relations[rule.head.relation]
                    added = 0
                    for values in fresh:
                        if head.insert_new(values):
                            new_delta[rule.head.relation].insert_new(values)
                            added += 1
                    self._count_derived(rule, added, stratum)
            for retired in delta.values():
                self._retire_counters(retired)
            delta = new_delta
        for retired in delta.values():
            self._retire_counters(retired)
        self.stats.rounds += stratum.rounds
        stratum.seconds = time.perf_counter() - started
        span.set(rounds=stratum.rounds, derived=stratum.derived)

    def _count_derived(
        self, rule: Rule, added: int, stratum: StratumStats
    ) -> None:
        if not added:
            return
        stratum.derived += added
        self.stats.tuples_derived += added
        key = str(rule)
        self.stats.rule_derived[key] = (
            self.stats.rule_derived.get(key, 0) + added
        )
        if self.meter is not None:
            self.meter.charge_tuples(added, "datalog")

    # -- join planning -----------------------------------------------------

    def _plan_joins(
        self,
        positive: List[Tuple[int, Atom]],
        delta_atom: Optional[int],
        delta: Optional[SetRelation],
    ) -> List[Tuple[int, Atom]]:
        """Order positive atoms by estimated selectivity.

        The delta atom stays first (every semi-naive derivation must use a
        new tuple); the rest are chosen greedily, preferring atoms with
        the most bound columns and, among those, the smallest relation.
        The textual index breaks remaining ties, keeping plans
        deterministic.
        """
        ordered: List[Tuple[int, Atom]] = []
        remaining = list(positive)
        bound: Set[Var] = set()
        if delta_atom is not None:
            for pair in remaining:
                if pair[0] == delta_atom:
                    ordered.append(pair)
                    remaining.remove(pair)
                    bound.update(pair[1].variables)
                    break
        while remaining:
            best: Optional[Tuple[int, Atom]] = None
            best_key: Optional[Tuple[int, int, int]] = None
            for pair in remaining:
                index, atom = pair
                bound_columns = sum(
                    1
                    for term in atom.terms
                    if isinstance(term, Const) or term in bound
                )
                size = len(self._relations[atom.relation])
                key = (-bound_columns, size, index)
                if best_key is None or key < best_key:
                    best, best_key = pair, key
            assert best is not None
            ordered.append(best)
            remaining.remove(best)
            bound.update(best[1].variables)
        return ordered

    def _compile_checks(
        self,
        items: List[BodyItem],
        slots: Dict[Var, int],
    ) -> List[tuple]:
        """Compile tail items into ``_JoinStep.checks`` tuples."""
        checks: List[tuple] = []
        for item in items:
            if isinstance(item, NotEqual):
                checks.append(
                    (None, None, None, slots[item.left], slots[item.right])
                )
            else:
                template: List[Optional[int]] = []
                fill: List[Tuple[int, int]] = []
                for i, term in enumerate(item.terms):
                    if isinstance(term, Const):
                        template.append(term.value)
                    else:
                        template.append(None)
                        fill.append((i, slots[term]))
                checks.append(
                    (self._relations[item.relation]._tuples, template, fill, 0, 0)
                )
        return checks

    def _compile_steps(
        self,
        rule: Rule,
        ordered: List[Tuple[int, Atom]],
    ) -> Tuple[List[_JoinStep], List[tuple], List[Optional[int]],
               List[Tuple[int, int]], int]:
        """Compile a join plan: steps, final checks, and the head layout.

        Returns ``(steps, final_checks, head_template, head_fill, nslots)``
        where the head tuple is emitted by writing ``env[slot]`` values
        into ``head_template`` at the ``head_fill`` positions.
        """
        tail: List[BodyItem] = [
            item
            for item in rule.body
            if isinstance(item, NotEqual)
            or (isinstance(item, Atom) and item.negated)
        ]

        def item_vars(item: BodyItem) -> Set[Var]:
            if isinstance(item, NotEqual):
                return {item.left, item.right}
            return set(item.variables)

        slots: Dict[Var, int] = {}

        def slot_of(var: Var) -> int:
            slot = slots.get(var)
            if slot is None:
                slot = slots[var] = len(slots)
            return slot

        steps: List[_JoinStep] = []
        bound: Set[Var] = set()
        pending = list(tail)
        for body_index, atom in ordered:
            key_positions: List[int] = []
            key_template: List[Optional[int]] = []
            key_slots: List[Tuple[int, int]] = []
            bind_positions: List[Tuple[int, int]] = []
            same_positions: List[Tuple[int, int]] = []
            fresh_at: Dict[Var, int] = {}
            for i, term in enumerate(atom.terms):
                if isinstance(term, Const):
                    key_template.append(term.value)
                    key_positions.append(i)
                elif term in bound:
                    key_template.append(None)
                    key_slots.append((len(key_template) - 1, slot_of(term)))
                    key_positions.append(i)
                elif term in fresh_at:
                    same_positions.append((i, fresh_at[term]))
                else:
                    fresh_at[term] = i
                    bind_positions.append((i, slot_of(term)))
            bound.update(atom.variables)
            ready = [item for item in pending if item_vars(item) <= bound]
            for item in ready:
                pending.remove(item)
            steps.append(
                _JoinStep(
                    body_index=body_index,
                    relation_name=atom.relation,
                    key_positions=tuple(key_positions),
                    key_template=key_template,
                    key_slots=key_slots,
                    bind_positions=bind_positions,
                    same_positions=same_positions,
                    checks=self._compile_checks(ready, slots),
                )
            )
        final_checks = self._compile_checks(pending, slots)
        head_template: List[Optional[int]] = []
        head_fill: List[Tuple[int, int]] = []
        for i, term in enumerate(rule.head.terms):
            if isinstance(term, Const):
                head_template.append(term.value)
            else:
                head_template.append(None)
                head_fill.append((i, slots[term]))
        return steps, final_checks, head_template, head_fill, len(slots)

    def _eval_rule(
        self,
        rule: Rule,
        delta_atom: Optional[int],
        delta: Optional[SetRelation],
    ) -> List[Tuple[int, ...]]:
        started = time.perf_counter()
        positive = [
            (i, item)
            for i, item in enumerate(rule.body)
            if isinstance(item, Atom) and not item.negated
        ]
        ordered = self._plan_joins(positive, delta_atom, delta)
        steps, final_checks, head_template, head_fill, nslots = (
            self._compile_steps(rule, ordered)
        )
        results: List[Tuple[int, ...]] = []
        env: List[Optional[int]] = [None] * nslots
        nsteps = len(steps)

        def passes(check: tuple) -> bool:
            neg_tuples, template, fill, slot_a, slot_b = check
            if neg_tuples is None:
                return env[slot_a] != env[slot_b]
            for i, slot in fill:
                template[i] = env[slot]
            return tuple(template) not in neg_tuples

        # Provenance variant of the join loop: maintains the trail of
        # matched body tuples and records each *first* derivation of a
        # head tuple.  Kept separate so the common path below stays free
        # of per-candidate branches.
        prov = self.provenance
        if prov is not None:
            assert self.fact_keys is not None
            fact_keys = self.fact_keys
            head_rel = rule.head.relation
            trail: List[Tuple[int, str, Tuple[int, ...]]] = []

            def join_prov(position: int) -> None:
                if position == nsteps:
                    for check in final_checks:
                        if not passes(check):
                            return
                    for i, slot in head_fill:
                        head_template[i] = env[slot]
                    values = tuple(head_template)
                    results.append(values)
                    key = (head_rel, values)
                    if key not in prov and key not in fact_keys:
                        prov[key] = (rule, tuple(trail))
                    return
                step = steps[position]
                if step.body_index == delta_atom and delta is not None:
                    relation: SetRelation = delta
                else:
                    relation = self._relations[step.relation_name]
                key_template = step.key_template
                for i, slot in step.key_slots:
                    key_template[i] = env[slot]
                candidates = relation.lookup(
                    step.key_positions, tuple(key_template)
                )
                next_position = position + 1
                for values in candidates:
                    if step.same_positions and any(
                        values[i] != values[j]
                        for i, j in step.same_positions
                    ):
                        continue
                    for i, slot in step.bind_positions:
                        env[slot] = values[i]
                    if all(passes(check) for check in step.checks):
                        trail.append(
                            (step.body_index, step.relation_name, values)
                        )
                        join_prov(next_position)
                        trail.pop()

        def join(position: int) -> None:
            if position == nsteps:
                for check in final_checks:
                    if not passes(check):
                        return
                for i, slot in head_fill:
                    head_template[i] = env[slot]
                results.append(tuple(head_template))
                return
            step = steps[position]
            if step.body_index == delta_atom and delta is not None:
                relation: SetRelation = delta
            else:
                relation = self._relations[step.relation_name]
            key_template = step.key_template
            for i, slot in step.key_slots:
                key_template[i] = env[slot]
            candidates = relation.lookup(
                step.key_positions, tuple(key_template)
            )
            bind_positions = step.bind_positions
            same_positions = step.same_positions
            checks = step.checks
            next_position = position + 1
            for values in candidates:
                if same_positions:
                    consistent = True
                    for i, j in same_positions:
                        if values[i] != values[j]:
                            consistent = False
                            break
                    if not consistent:
                        continue
                for i, slot in bind_positions:
                    env[slot] = values[i]
                for check in checks:
                    if not passes(check):
                        break
                else:
                    join(next_position)
            # Slots are overwritten before their next read (the plan only
            # reads a slot after the step that binds it), so no unbinding.

        with observe.span("datalog.rule") as span:
            if prov is not None:
                join_prov(0)
            else:
                join(0)
            self.stats.rule_evals += 1
            elapsed = time.perf_counter() - started
            self.stats.rule_eval_seconds += elapsed
            key = str(rule)
            self.stats.rule_seconds[key] = (
                self.stats.rule_seconds.get(key, 0.0) + elapsed
            )
            span.set(rule=key, tuples=len(results))
        return results


    # -- incremental maintenance (DRed) ------------------------------------

    def apply_update(
        self,
        strata: List[List[Rule]],
        facts: Dict[str, Set[Tuple[int, ...]]],
        base_add: Dict[str, Set[Tuple[int, ...]]],
        base_del: Dict[str, Set[Tuple[int, ...]]],
        ustats: UpdateStats,
    ) -> None:
        """Propagate a base-fact delta through the strata in order.

        ``changed_add``/``changed_del`` accumulate the *net* change of
        every relation finalized so far (base relations and lower-strata
        heads); a stratum whose rules mention none of the changed
        relations is skipped outright.  Base deltas that target derived
        (head) relations are deferred to that head's stratum, where they
        seed the DRed pass instead of being applied directly.
        """
        head_names = {
            rule.head.relation for stratum in strata for rule in stratum
        }
        changed_add: Dict[str, Set[Tuple[int, ...]]] = {}
        changed_del: Dict[str, Set[Tuple[int, ...]]] = {}
        pending_add: Dict[str, Set[Tuple[int, ...]]] = {}
        pending_del: Dict[str, Set[Tuple[int, ...]]] = {}
        for name, tuples in base_add.items():
            if name in head_names:
                pending_add[name] = set(tuples)
                continue
            relation = self._relations[name]
            actual = {t for t in tuples if relation.insert_new(t)}
            if actual:
                changed_add[name] = actual
                ustats.tuples_inserted += len(actual)
        for name, tuples in base_del.items():
            if name in head_names:
                pending_del[name] = set(tuples)
                continue
            relation = self._relations[name]
            actual = {t for t in tuples if t in relation}
            if actual:
                relation.discard_all(actual)
                changed_del[name] = actual
                ustats.tuples_deleted += len(actual)
        for stratum in strata:
            heads = {rule.head.relation for rule in stratum}
            mentioned = set(heads)
            for rule in stratum:
                for item in rule.body:
                    if isinstance(item, Atom):
                        mentioned.add(item.relation)
            touched = any(
                changed_add.get(name) or changed_del.get(name)
                for name in mentioned
            ) or any(
                pending_add.get(name) or pending_del.get(name)
                for name in heads
            )
            if not touched:
                ustats.strata_skipped += 1
                continue
            self._update_stratum(
                stratum, heads, facts, changed_add, changed_del,
                pending_add, pending_del, ustats,
            )

    def _update_stratum(
        self,
        rules: List[Rule],
        heads: Set[str],
        facts: Dict[str, Set[Tuple[int, ...]]],
        changed_add: Dict[str, Set[Tuple[int, ...]]],
        changed_del: Dict[str, Set[Tuple[int, ...]]],
        pending_add: Dict[str, Set[Tuple[int, ...]]],
        pending_del: Dict[str, Set[Tuple[int, ...]]],
        ustats: UpdateStats,
    ) -> None:
        """DRed for one stratum: overdelete, remove, rederive, insert.

        The overdeletion fixpoint evaluates rule bodies against the *old*
        database — this stratum's head relations are physically untouched
        until the phase ends, and lower relations are viewed through
        ``changed_add``/``changed_del`` (see :meth:`_eval_update`).
        Overdeletion may overapproximate (anything still derivable is
        rederived afterwards), but never underapproximate: a derivation
        invalidated by a lower-stratum deletion is found by pivoting on
        the deleted tuples, and one invalidated by an insertion under a
        negated atom by pivoting on the inserted tuples.
        """
        # ---- Phase 1: overdeletion fixpoint over the old database ----
        overdeleted: Dict[str, Set[Tuple[int, ...]]] = {h: set() for h in heads}
        frontier: Dict[str, Set[Tuple[int, ...]]] = {}

        def mark(head: str, values: Tuple[int, ...]) -> None:
            if values in self._relations[head] and values not in overdeleted[head]:
                overdeleted[head].add(values)
                frontier.setdefault(head, set()).add(values)

        for head, tuples in pending_del.items():
            if head in heads:
                for values in tuples:
                    mark(head, values)
        for rule in rules:
            head = rule.head.relation
            for i, item in enumerate(rule.body):
                if not isinstance(item, Atom):
                    continue
                if not item.negated and item.relation not in heads:
                    deleted = changed_del.get(item.relation)
                    if deleted:
                        for values in self._eval_update(
                            rule, i, deleted, True, changed_add, changed_del
                        ):
                            mark(head, values)
                elif item.negated:
                    added = changed_add.get(item.relation)
                    if added:
                        for values in self._eval_update(
                            rule, i, added, True, changed_add, changed_del
                        ):
                            mark(head, values)
        while frontier:
            if self.meter is not None:
                self.meter.checkpoint("datalog")
            ustats.rounds += 1
            wave, frontier = frontier, {}
            for rule in rules:
                head = rule.head.relation
                for i, item in enumerate(rule.body):
                    if (
                        isinstance(item, Atom)
                        and not item.negated
                        and item.relation in heads
                        and wave.get(item.relation)
                    ):
                        for values in self._eval_update(
                            rule, i, wave[item.relation], True,
                            changed_add, changed_del,
                        ):
                            mark(head, values)
        for head, dset in overdeleted.items():
            if dset:
                self._relations[head].discard_all(dset)
                ustats.tuples_deleted += len(dset)

        # ---- Phase 2+3: rederive survivors, then insert ----
        inserted: Dict[str, Set[Tuple[int, ...]]] = {h: set() for h in heads}
        delta: Dict[str, SetRelation] = {
            h: self._fresh_delta(h, ()) for h in heads
        }

        def put(head: str, values: Tuple[int, ...]) -> None:
            if self._relations[head].insert_new(values):
                inserted[head].add(values)
                delta[head].insert_new(values)
                ustats.tuples_inserted += 1
                if values in overdeleted[head]:
                    ustats.rederived += 1
                if self.meter is not None:
                    self.meter.charge_tuples(1, "datalog")

        for head in heads:
            # Still-asserted base facts rederive unconditionally, and base
            # facts newly asserted into a derived relation seed insertion.
            survivors = overdeleted[head] & facts.get(head, set())
            for values in survivors:
                put(head, values)
            for values in pending_add.get(head, ()):
                put(head, values)
        deletion_heads = {h for h in heads if overdeleted[h]}
        for rule in rules:
            head = rule.head.relation
            if head in deletion_heads:
                # Rederivation needs alternative support from *unchanged*
                # tuples, which no delta pivot would find: evaluate the
                # rule in full against the post-deletion database (this
                # also covers any lower-stratum insertions for it).
                for values in self._eval_rule(rule, None, None):
                    put(head, values)
                continue
            for i, item in enumerate(rule.body):
                if not isinstance(item, Atom):
                    continue
                if not item.negated and item.relation not in heads:
                    added = changed_add.get(item.relation)
                    if added:
                        pivot = self._fresh_delta(item.relation, added)
                        for values in self._eval_rule(rule, i, pivot):
                            put(head, values)
                elif item.negated:
                    deleted = changed_del.get(item.relation)
                    if deleted:
                        absent = {
                            t for t in deleted
                            if t not in self._relations[item.relation]
                        }
                        for values in self._eval_update(
                            rule, i, absent, False, changed_add, changed_del
                        ):
                            put(head, values)
        while any(not rel.is_empty() for rel in delta.values()):
            if self.meter is not None:
                self.meter.checkpoint("datalog")
            ustats.rounds += 1
            new_delta: Dict[str, SetRelation] = {
                h: self._fresh_delta(h, ()) for h in heads
            }
            for rule in rules:
                head = rule.head.relation
                for i, item in enumerate(rule.body):
                    if (
                        isinstance(item, Atom)
                        and not item.negated
                        and item.relation in heads
                        and not delta[item.relation].is_empty()
                    ):
                        for values in self._eval_rule(
                            rule, i, delta[item.relation]
                        ):
                            if self._relations[head].insert_new(values):
                                inserted[head].add(values)
                                new_delta[head].insert_new(values)
                                ustats.tuples_inserted += 1
                                if values in overdeleted[head]:
                                    ustats.rederived += 1
                                if self.meter is not None:
                                    self.meter.charge_tuples(1, "datalog")
            for retired in delta.values():
                self._retire_counters(retired)
            delta = new_delta
        for retired in delta.values():
            self._retire_counters(retired)

        # ---- Net change of this stratum's heads, for later strata ----
        for head in heads:
            relation = self._relations[head]
            net_del = {t for t in overdeleted[head] if t not in relation}
            net_add = {t for t in inserted[head] if t not in overdeleted[head]}
            if net_del:
                changed_del.setdefault(head, set()).update(net_del)
            if net_add:
                changed_add.setdefault(head, set()).update(net_add)

    def _eval_update(
        self,
        rule: Rule,
        pivot: int,
        pivot_tuples: Iterable[Tuple[int, ...]],
        old: bool,
        changed_add: Dict[str, Set[Tuple[int, ...]]],
        changed_del: Dict[str, Set[Tuple[int, ...]]],
    ) -> Set[Tuple[int, ...]]:
        """Instantiate ``rule`` with body position ``pivot`` bound to each
        pivot tuple, against either the old database (``old=True``) or the
        current one.

        The old view of a relation is ``(current - changed_add) |
        changed_del``; relations with no recorded change — including this
        stratum's own heads during overdeletion, whose physical removal is
        deferred — read straight through.  The pivot may be a *negated*
        atom: pivoting on tuples added to (old view) or removed from
        (current view) a negated relation finds exactly the derivations
        that negation invalidated or enabled.  Deltas are small, so this
        interpretive join is not on the hot path; bulk evaluation stays on
        the compiled :meth:`_eval_rule`.
        """
        self.stats.rule_evals += 1
        pivot_item = rule.body[pivot]
        assert isinstance(pivot_item, Atom)
        relations = self._relations

        def old_member(name: str, values: Tuple[int, ...]) -> bool:
            if values in relations[name]._tuples:
                added = changed_add.get(name)
                return not (added and values in added)
            deleted = changed_del.get(name)
            return bool(deleted and values in deleted)

        def member(name: str, values: Tuple[int, ...]) -> bool:
            if old:
                return old_member(name, values)
            return values in relations[name]._tuples

        positive = [
            item
            for i, item in enumerate(rule.body)
            if i != pivot and isinstance(item, Atom) and not item.negated
        ]
        checks = [
            item
            for i, item in enumerate(rule.body)
            if i != pivot
            and (isinstance(item, NotEqual)
                 or (isinstance(item, Atom) and item.negated))
        ]
        results: Set[Tuple[int, ...]] = set()
        env: Dict[Var, int] = {}

        def bind(atom: Atom, values: Tuple[int, ...]) -> Optional[List[Var]]:
            fresh: List[Var] = []
            for term, value in zip(atom.terms, values):
                if isinstance(term, Const):
                    if term.value != value:
                        break
                else:
                    seen = env.get(term)
                    if seen is None:
                        env[term] = value
                        fresh.append(term)
                    elif seen != value:
                        break
            else:
                return fresh
            for var in fresh:
                del env[var]
            return None

        def candidates(atom: Atom) -> Iterable[Tuple[int, ...]]:
            positions: List[int] = []
            key: List[int] = []
            for i, term in enumerate(atom.terms):
                if isinstance(term, Const):
                    positions.append(i)
                    key.append(term.value)
                elif term in env:
                    positions.append(i)
                    key.append(env[term])
            found = relations[atom.relation].lookup(
                tuple(positions), tuple(key)
            )
            if not old:
                return found
            added = changed_add.get(atom.relation)
            deleted = changed_del.get(atom.relation)
            if not added and not deleted:
                return found
            out = [t for t in found if not (added and t in added)]
            if deleted:
                out.extend(
                    t for t in deleted
                    if all(t[p] == k for p, k in zip(positions, key))
                )
            return out

        def emit() -> None:
            for item in checks:
                if isinstance(item, NotEqual):
                    if env[item.left] == env[item.right]:
                        return
                else:
                    values = tuple(
                        term.value if isinstance(term, Const) else env[term]
                        for term in item.terms
                    )
                    if member(item.relation, values):
                        return
            results.add(tuple(
                term.value if isinstance(term, Const) else env[term]
                for term in rule.head.terms
            ))

        def walk(position: int) -> None:
            if position == len(positive):
                emit()
                return
            atom = positive[position]
            for values in list(candidates(atom)):
                fresh = bind(atom, values)
                if fresh is None:
                    continue
                walk(position + 1)
                for var in fresh:
                    del env[var]

        for values in pivot_tuples:
            if pivot_item.negated and member(pivot_item.relation, values):
                continue
            if not pivot_item.negated and not member(
                pivot_item.relation, values
            ):
                continue
            fresh = bind(pivot_item, values)
            if fresh is None:
                continue
            walk(0)
            for var in fresh:
                del env[var]
        return results


class _LegacySetStore(_SetStore):
    """The pre-optimization evaluator, kept as the benchmark baseline.

    Wholesale index invalidation on every insert, per-round deltas as
    plain Python sets scanned linearly, atoms joined in textual order,
    and negation/disequality checked only after the full join.  Selected
    with ``Program(backend="set", engine="legacy")`` so
    ``benchmarks/bench_datalog_joins`` can quantify the incremental
    engine against it; results are identical (property-tested).
    """

    def __init__(self, program: Program) -> None:
        self._relations = {
            name: LegacySetRelation(name, decl.domains)
            for name, decl in program._relations.items()
        }
        self.stats = SolverStats(backend="set", engine="legacy")

    def _run_stratum(self, rules: List[Rule], span) -> None:
        started = time.perf_counter()
        heads = {rule.head.relation for rule in rules}
        stratum = StratumStats(relations=tuple(sorted(heads)))
        span.set(relations=",".join(stratum.relations))
        self.stats.strata.append(stratum)
        delta: Dict[str, Set[Tuple[int, ...]]] = {
            name: set(self._relations[name]) for name in heads
        }
        stratum.rounds = 1
        for rule in rules:
            fresh = self._legacy_eval(rule, delta_atom=None, delta=None)
            head = self._relations[rule.head.relation]
            added = 0
            for values in fresh:
                if head.add(values):
                    delta[rule.head.relation].add(values)
                    added += 1
            self._count_derived(rule, added, stratum)
        while any(delta.values()):
            if self.meter is not None:
                self.meter.checkpoint("datalog")
            stratum.rounds += 1
            new_delta: Dict[str, Set[Tuple[int, ...]]] = {
                name: set() for name in heads
            }
            for rule in rules:
                positions = [
                    i
                    for i, item in enumerate(rule.body)
                    if isinstance(item, Atom)
                    and not item.negated
                    and item.relation in heads
                ]
                for position in positions:
                    atom = rule.body[position]
                    assert isinstance(atom, Atom)
                    if not delta[atom.relation]:
                        continue
                    fresh = self._legacy_eval(
                        rule, delta_atom=position, delta=delta[atom.relation]
                    )
                    head = self._relations[rule.head.relation]
                    added = 0
                    for values in fresh:
                        if head.add(values):
                            new_delta[rule.head.relation].add(values)
                            added += 1
                    self._count_derived(rule, added, stratum)
            delta = new_delta
        self.stats.rounds += stratum.rounds
        stratum.seconds = time.perf_counter() - started
        span.set(rounds=stratum.rounds, derived=stratum.derived)

    def _legacy_eval(
        self,
        rule: Rule,
        delta_atom: Optional[int],
        delta: Optional[Set[Tuple[int, ...]]],
    ) -> List[Tuple[int, ...]]:
        started = time.perf_counter()
        positive = [
            (i, item)
            for i, item in enumerate(rule.body)
            if isinstance(item, Atom) and not item.negated
        ]
        # Join the delta atom first: every derivation must use a new tuple.
        if delta_atom is not None:
            positive.sort(key=lambda pair: pair[0] != delta_atom)
        results: List[Tuple[int, ...]] = []

        def check_tail(bindings: Dict[Var, int]) -> bool:
            for item in rule.body:
                if isinstance(item, NotEqual):
                    if bindings[item.left] == bindings[item.right]:
                        return False
                elif item.negated:
                    values = tuple(
                        term.value if isinstance(term, Const) else bindings[term]
                        for term in item.terms
                    )
                    if values in self._relations[item.relation]:
                        return False
            return True

        def join(position: int, bindings: Dict[Var, int]) -> None:
            if position == len(positive):
                if check_tail(bindings):
                    results.append(
                        tuple(
                            term.value
                            if isinstance(term, Const)
                            else bindings[term]
                            for term in rule.head.terms
                        )
                    )
                return
            body_index, atom = positive[position]
            bound_positions: List[int] = []
            key: List[int] = []
            for i, term in enumerate(atom.terms):
                if isinstance(term, Const):
                    bound_positions.append(i)
                    key.append(term.value)
                elif term in bindings:
                    bound_positions.append(i)
                    key.append(bindings[term])
            if body_index == delta_atom and delta is not None:
                candidates = [
                    values
                    for values in delta
                    if all(
                        values[p] == k for p, k in zip(bound_positions, key)
                    )
                ]
            else:
                candidates = self._relations[atom.relation].lookup(
                    tuple(bound_positions), tuple(key)
                )
            for values in candidates:
                extended = dict(bindings)
                consistent = True
                for i, term in enumerate(atom.terms):
                    if isinstance(term, Const):
                        continue
                    if term in extended and extended[term] != values[i]:
                        consistent = False
                        break
                    extended[term] = values[i]
                if consistent:
                    join(position + 1, extended)

        join(0, {})
        self.stats.rule_evals += 1
        elapsed = time.perf_counter() - started
        self.stats.rule_eval_seconds += elapsed
        return results


class _BddStore(_Store):
    """Semi-naive evaluation over BDD relations (the bddbddb path)."""

    def __init__(self, program: Program) -> None:
        self.bdd = BDD()
        self.space = DomainSpace(self.bdd, ordering=program.ordering)
        instance_need: Dict[str, int] = {name: 1 for name in program._domains}
        for decl in program._relations.values():
            for domain in set(decl.domains):
                count = decl.domains.count(domain)
                instance_need[domain] = max(instance_need[domain], count)
        for rule in program._rules:
            per_type: Dict[str, Set[Var]] = {}
            for atom in itertools.chain([rule.head], rule.body):
                if isinstance(atom, NotEqual):
                    continue
                decl = program._relations[atom.relation]
                for term, domain in zip(atom.terms, decl.domains):
                    if isinstance(term, Var):
                        per_type.setdefault(domain, set()).add(term)
            for domain, variables in per_type.items():
                instance_need[domain] = max(
                    instance_need[domain], len(variables)
                )
        for name, size in program._domains.items():
            self.space.declare(name, size, instances=instance_need[name])
        self._relations: Dict[str, BddRelation] = {}
        for name, decl in program._relations.items():
            counters: Dict[str, int] = {}
            instances = []
            for domain in decl.domains:
                index = counters.get(domain, 0)
                counters[domain] = index + 1
                instances.append(self.space.instance(domain, index))
            self._relations[name] = BddRelation(
                name, decl.domains, self.space, instances
            )
        self._program = program
        self.stats = SolverStats(backend="bdd")

    def relation(self, name: str) -> BddRelation:
        return self._relations[name]

    def finalize_stats(self) -> None:
        total = sum(len(relation) for relation in self._relations.values())
        self.stats.tuples_derived = total - self.stats.facts_loaded
        self.stats.bdd_cache_lookups = self.bdd.op_lookups
        self.stats.bdd_cache_hits = self.bdd.op_hits

    # -- rule evaluation ---------------------------------------------------

    def _variable_instances(self, rule: Rule) -> Dict[Var, DomainInstance]:
        assignment: Dict[Var, DomainInstance] = {}
        counters: Dict[str, int] = {}
        for atom in itertools.chain(rule.body, [rule.head]):
            if isinstance(atom, NotEqual):
                continue
            decl = self._program._relations[atom.relation]
            for term, domain in zip(atom.terms, decl.domains):
                if isinstance(term, Var) and term not in assignment:
                    index = counters.get(domain, 0)
                    counters[domain] = index + 1
                    assignment[term] = self.space.instance(domain, index)
        return assignment

    def _atom_node(
        self,
        atom: Atom,
        variables: Dict[Var, DomainInstance],
        override_node: Optional[int] = None,
    ) -> int:
        """Relation node moved into the rule's variable space."""
        relation = self._relations[atom.relation]
        node = relation.node if override_node is None else override_node
        bdd = self.bdd
        project: List[DomainInstance] = []
        first_position: Dict[Var, DomainInstance] = {}
        sources: List[DomainInstance] = []
        targets: List[DomainInstance] = []
        for instance, term in zip(relation.instances, atom.terms):
            if isinstance(term, Const):
                node = bdd.apply_and(
                    node, self.space.encode(instance, term.value)
                )
                project.append(instance)
            elif term in first_position:
                node = bdd.apply_and(
                    node, self.space.equality(first_position[term], instance)
                )
                project.append(instance)
            else:
                first_position[term] = instance
                sources.append(instance)
                targets.append(variables[term])
        if project:
            node = bdd.exist(node, self.space.levels_of(project))
        mapping = {
            level_src: level_dst
            for src, dst in zip(sources, targets)
            for level_src, level_dst in zip(src.levels, dst.levels)
        }
        return bdd.rename(node, mapping)

    def _eval_rule(
        self,
        rule: Rule,
        delta_atom: Optional[int] = None,
        delta_node: Optional[int] = None,
    ) -> int:
        """Evaluate one rule body; returns a node on the head's instances."""
        started = time.perf_counter()
        with observe.span("datalog.rule") as span:
            try:
                return self._eval_rule_inner(rule, delta_atom, delta_node)
            finally:
                elapsed = time.perf_counter() - started
                self.stats.rule_evals += 1
                self.stats.rule_eval_seconds += elapsed
                key = str(rule)
                self.stats.rule_seconds[key] = (
                    self.stats.rule_seconds.get(key, 0.0) + elapsed
                )
                span.set(rule=key)

    def _eval_rule_inner(
        self,
        rule: Rule,
        delta_atom: Optional[int] = None,
        delta_node: Optional[int] = None,
    ) -> int:
        bdd = self.bdd
        variables = self._variable_instances(rule)
        node = bdd.TRUE
        for i, item in enumerate(rule.body):
            if isinstance(item, NotEqual) or item.negated:
                continue
            override = delta_node if i == delta_atom else None
            node = bdd.apply_and(
                node, self._atom_node(item, variables, override)
            )
            if node == bdd.FALSE:
                return bdd.FALSE
        for item in rule.body:
            if isinstance(item, NotEqual):
                eq = self.space.equality(
                    variables[item.left], variables[item.right]
                )
                node = bdd.apply_diff(node, eq)
            elif isinstance(item, Atom) and item.negated:
                node = bdd.apply_diff(
                    node, self._atom_node(item, variables)
                )
            if node == bdd.FALSE:
                return bdd.FALSE
        head_vars = set(rule.head.variables)
        dead = [
            instance
            for var, instance in variables.items()
            if var not in head_vars
        ]
        if dead:
            node = bdd.exist(node, self.space.levels_of(dead))
        # Move variables onto the head relation's canonical instances.
        head_relation = self._relations[rule.head.relation]
        mapping: Dict[int, int] = {}
        seen: Dict[Var, DomainInstance] = {}
        equalities: List[int] = []
        consts: List[int] = []
        for instance, term in zip(head_relation.instances, rule.head.terms):
            if isinstance(term, Const):
                consts.append(self.space.encode(instance, term.value))
            elif term in seen:
                equalities.append(self.space.equality(seen[term], instance))
            else:
                seen[term] = instance
                src = variables[term]
                for level_src, level_dst in zip(src.levels, instance.levels):
                    mapping[level_src] = level_dst
        node = bdd.rename(node, mapping)
        for extra in itertools.chain(consts, equalities):
            node = bdd.apply_and(node, extra)
        return node

    def run_stratum(self, rules: List[Rule]) -> None:
        with observe.span("datalog.stratum") as span:
            self._run_stratum(rules, span)

    def _run_stratum(self, rules: List[Rule], span) -> None:
        started = time.perf_counter()
        bdd = self.bdd
        heads = {rule.head.relation for rule in rules}
        stratum = StratumStats(relations=tuple(sorted(heads)))
        span.set(relations=",".join(stratum.relations))
        self.stats.strata.append(stratum)
        sizes_before = sum(len(self._relations[name]) for name in heads)
        delta: Dict[str, int] = {
            name: self._relations[name].node for name in heads
        }
        stratum.rounds = 1
        for rule in rules:
            head = self._relations[rule.head.relation]
            fresh = self._eval_rule(rule)
            new = bdd.apply_diff(fresh, head.node)
            if new != bdd.FALSE:
                head.union_node(new)
                delta[rule.head.relation] = bdd.apply_or(
                    delta[rule.head.relation], new
                )
        while any(node != bdd.FALSE for node in delta.values()):
            if self.meter is not None:
                self.meter.checkpoint("datalog")
            stratum.rounds += 1
            new_delta: Dict[str, int] = {name: bdd.FALSE for name in heads}
            for rule in rules:
                head = self._relations[rule.head.relation]
                for i, item in enumerate(rule.body):
                    if (
                        not isinstance(item, Atom)
                        or item.negated
                        or item.relation not in heads
                    ):
                        continue
                    delta_node = delta[item.relation]
                    if delta_node == bdd.FALSE:
                        continue
                    fresh = self._eval_rule(
                        rule, delta_atom=i, delta_node=delta_node
                    )
                    new = bdd.apply_diff(fresh, head.node)
                    if new != bdd.FALSE:
                        head.union_node(new)
                        new_delta[rule.head.relation] = bdd.apply_or(
                            new_delta[rule.head.relation], new
                        )
            delta = new_delta
        stratum.derived = (
            sum(len(self._relations[name]) for name in heads) - sizes_before
        )
        if self.meter is not None and stratum.derived > 0:
            # BDD relations don't expose per-rule tuple deltas cheaply;
            # charge the stratum's net growth in one step.
            self.meter.charge_tuples(stratum.derived, "datalog")
        self.stats.rounds += stratum.rounds
        stratum.seconds = time.perf_counter() - started
        span.set(rounds=stratum.rounds, derived=stratum.derived)
