"""Implicit call knowledge (Section 5.1).

"An implicit call such as system callback requires expert knowledge" -- the
paper's example is ``apr_thread_create``, where the entry-function argument
is invoked on a new thread, so RegionWiz adds an extra call edge from the
call instruction to that function.  The registry below carries the same
expert knowledge for the thread-creation functions of the Windows API,
libc (pthreads), and APR, plus APR cleanup registration (the runtime calls
the registered cleanup when the pool is destroyed).

Each entry also records *data flow*: which caller argument is passed to
which parameter of the implicitly-called function, so the pointer analysis
can see, e.g., the registered cleanup receiving its ``data`` pointer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

__all__ = ["ImplicitCallSpec", "ImplicitCallRegistry", "default_registry"]


@dataclass(frozen=True)
class ImplicitCallSpec:
    """One implicit invocation made by a library function.

    ``fn_arg`` is the argument position holding the entry function;
    ``data_flow`` maps caller argument positions to parameters of the
    implicitly-called function.
    """

    fn_arg: int
    data_flow: Tuple[Tuple[int, int], ...] = ()


@dataclass
class ImplicitCallRegistry:
    """Maps a callee name to its implicit invocations."""

    entries: Dict[str, List[ImplicitCallSpec]] = field(default_factory=dict)

    def register(self, function: str, *specs: ImplicitCallSpec) -> None:
        self.entries.setdefault(function, []).extend(specs)

    def register_simple(self, function: str, *fn_args: int) -> None:
        """Entry functions only, no data flow."""
        self.register(
            function, *(ImplicitCallSpec(position) for position in fn_args)
        )

    def specs(self, function: str) -> List[ImplicitCallSpec]:
        return self.entries.get(function, [])

    def positions(self, function: str) -> Tuple[int, ...]:
        return tuple(sorted({s.fn_arg for s in self.specs(function)}))

    def __contains__(self, function: str) -> bool:
        return function in self.entries

    def canonical(self) -> Dict[str, List[List[Any]]]:
        """A JSON-ready form for hashing into cache keys.

        Spec order and duplicates never change the analysis, so two
        registries with the same knowledge have the same canonical form.
        """
        return {
            name: [
                [fn_arg, [list(pair) for pair in flow]]
                for fn_arg, flow in sorted(
                    {(s.fn_arg, tuple(sorted(set(s.data_flow)))) for s in specs}
                )
            ]
            for name, specs in sorted(self.entries.items())
            if specs
        }

    def merged_with(
        self, extra: Mapping[str, Iterable[int]]
    ) -> "ImplicitCallRegistry":
        merged = ImplicitCallRegistry(
            {name: list(specs) for name, specs in self.entries.items()}
        )
        for name, positions in extra.items():
            merged.register_simple(name, *positions)
        return merged


def default_registry() -> ImplicitCallRegistry:
    """Thread creation + cleanup registration for APR, libc, Windows."""
    registry = ImplicitCallRegistry()
    # APR: apr_thread_create(thread**, attr*, entry_fn, data*, pool*)
    # The entry receives (apr_thread_t*, void *data) -> data is param 1.
    registry.register("apr_thread_create", ImplicitCallSpec(2, ((3, 1),)))
    # pthreads: pthread_create(tid*, attr*, start_routine, arg*)
    registry.register("pthread_create", ImplicitCallSpec(2, ((3, 0),)))
    # Windows: CreateThread(sec*, stack, start_routine, param*, flags, id*)
    registry.register("CreateThread", ImplicitCallSpec(2, ((3, 0),)))
    registry.register("_beginthreadex", ImplicitCallSpec(2, ((3, 0),)))
    # APR cleanup: apr_pool_cleanup_register(pool*, data*, plain, child);
    # both cleanups receive the data pointer as their only parameter.
    registry.register(
        "apr_pool_cleanup_register",
        ImplicitCallSpec(2, ((1, 0),)),
        ImplicitCallSpec(3, ((1, 0),)),
    )
    registry.register_simple("atexit", 0)
    registry.register("signal", ImplicitCallSpec(1))
    return registry
