"""Seeded inputs: the corpus, its unit order, the edit plan and ground truth.

Everything here is a pure function of the workload seed and the corpus
scale, so the same seed always yields byte-identical unit sources, the
same unit order and the same edit sequence.  The program under test only
ever receives the generated units.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.tool.batch import BatchUnit
from repro.workloads import PACKAGES, paper_scale_units

#: Multiplier on every package's ``PAPER_SCALE_KLOC`` budget.  At 0.05
#: the 22 executables total about 5.3 KLOC and one serial sweep takes a
#: couple of seconds, so a run fits several sweeps.
SCALE = 0.05

#: Edit kinds, in the order each unit receives them: an allocation inserted into ``main`` (delta assert), a comment or
#: whitespace change appended after ``main`` (manifest-served), then the
#: insert reverted (delta retract).
EDIT_KINDS = ("insert", "comment", "revert")

_PROBE_MARK = "bench_edit_probe_"


def build_units(scale: float = SCALE) -> List[BatchUnit]:
    return paper_scale_units(scale=scale)


def kloc(units: Sequence[BatchUnit]) -> float:
    return sum(len(unit.source.splitlines()) for unit in units) / 1000.0


def ordered_units(units: Sequence[BatchUnit], seed: int) -> List[BatchUnit]:
    """The units in the seed's order."""
    order = list(units)
    random.Random(f"order:{seed}").shuffle(order)
    return order


def hash_seed(seed: int, process: int) -> int:
    """The ``PYTHONHASHSEED`` of a run's ``process``-th workload process.

    String hashing decides set iteration order, and with it how much work
    the pointer analysis's fixpoint does: one unit's time can change by
    half between hash seeds.  Each process of a run therefore gets its
    own hash seed, and the run's medians pool several of them.
    """
    return random.Random(f"hash:{seed}:{process}").randrange(1, 2**32 - 1)


def edit_plan(names: Sequence[str], seed: int) -> List[Tuple[str, str]]:
    """A seeded sequence of single-unit edits: ``(unit, kind)`` pairs.

    Every unit is edited once with each of ``EDIT_KINDS``, in that
    order; only the interleaving across units comes from the seed.
    Every seed therefore edits the same multiset of units, so the
    edit-time percentiles do not depend on which units a seed happened
    to draw.  A ``comment`` edit is a comment or a whitespace change,
    drawn from the seed.
    """
    rng = random.Random(f"edits:{seed}")
    slots = sorted(names) * len(EDIT_KINDS)
    rng.shuffle(slots)
    seen: Dict[str, int] = {}
    plan = []
    for name in slots:
        kind = EDIT_KINDS[seen.get(name, 0)]
        seen[name] = seen.get(name, 0) + 1
        if kind == "comment" and rng.random() < 0.5:
            kind = "whitespace"
        plan.append((name, kind))
    return plan


class Editor:
    """Applies an edit plan to the current sources of a corpus."""

    def __init__(self, units: Sequence[BatchUnit]) -> None:
        self.units: Dict[str, BatchUnit] = {unit.name: unit for unit in units}
        self._order = [unit.name for unit in units]
        self._probes: Dict[str, str] = {}
        self._count = 0

    def current(self) -> List[BatchUnit]:
        return [self.units[name] for name in self._order]

    def apply(self, name: str, kind: str) -> BatchUnit:
        unit = self.units[name]
        self._count += 1
        source = unit.source
        if kind == "insert":
            alloc = "ralloc" if unit.effective_interface == "rc" else "apr_palloc"
            line = (
                f"    struct payload *{_PROBE_MARK}{self._count} ="
                f" {alloc}(top, sizeof(struct payload));\n"
            )
            # The generator emits main last: inserting above its final
            # return moves no other function's source locations.
            head, sep, tail = source.rpartition("    return 0;")
            if not sep:
                raise ValueError(f"{name}: no 'return 0;' in main to edit")
            source = head + line + sep + tail
            self._probes[name] = line
        elif kind == "revert":
            source = source.replace(self._probes.pop(name), "", 1)
        elif kind == "comment":
            source += f"/* edit {self._count} */\n"
        elif kind == "whitespace":
            source += "\n"
        else:
            raise ValueError(f"unknown edit kind {kind!r}")
        edited = replace(unit, source=source)
        self.units[name] = edited
        return edited


@dataclass(frozen=True)
class Expectation:
    """Ground truth for one unit, from its package model's seeded bugs."""

    high: int
    low_minimum: int


def ground_truth() -> Dict[str, Expectation]:
    return {
        f"{model.name}/{exe.name}": Expectation(
            high=exe.spec.expected_high(),
            low_minimum=exe.spec.expected_low_minimum(),
        )
        for model in PACKAGES
        for exe in model.executables
    }


def inputs_digest(
    units: Sequence[BatchUnit], plan: Sequence[Tuple[str, str]]
) -> str:
    """A digest of everything the program will be given."""
    digest = hashlib.sha256()
    for unit in units:
        digest.update(json.dumps([unit.name, unit.source]).encode())
    digest.update(json.dumps(list(plan)).encode())
    return digest.hexdigest()[:16]
