"""The one observation path: spans, events, and the observers consuming them.

Instrumented code calls two functions unconditionally::

    with observe.span("phase.call-graph", unit=name) as span:
        graph = build_call_graph(...)
        span.set(edges=graph.num_edges)

    observe.event("cache.hit", unit=name, key=key)

Every run-time surface is an :class:`Observer` of that one stream: the
span tracer (:class:`repro.obs.trace.Tracer`), the JSONL event log
(:class:`repro.obs.events.EventLog`), the live fleet bus
(:class:`repro.obs.live.TelemetryBus`), the ``--mem-profile`` peaks
(:class:`repro.obs.metrics.MemProfile`), and a pool worker's run-journal
writer (:mod:`repro.tool.batch`).  Each names what it consumes in two
tuples, ``spans`` and ``events``: ``"x.*"`` matches a prefix, ``"*"``
everything.  Spans open in install order and close in reverse, so a
later observer's attribute (a memory peak) is set before earlier ones
see the close.  Each name is routed once per install and memoised.

The installed observers are the only process-global observation state:
:func:`observing` adds observers for a ``with`` block, :func:`install`
replaces the whole set (a pool worker's initializer, which must also
drop what it inherited through ``fork``).  With nothing installed,
:func:`span` and :func:`event` are one global read and a ``None`` check,
and :func:`span` returns a shared stateless no-op;
``benchmarks/bench_trace_overhead.py`` holds that path under 3% of the
Datalog join benchmark.  :meth:`Observer.for_worker` gives the fresh,
picklable counterpart a pool worker installs (:func:`for_workers`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import MappingProxyType
from typing import Any, Dict, Iterator, Optional, Tuple, Type, TypeVar

__all__ = [
    "Observer",
    "Span",
    "active",
    "event",
    "for_workers",
    "install",
    "observers",
    "observing",
    "span",
]


class Observer:
    """Base class: consumes nothing until a subclass names what it wants."""

    spans: Tuple[str, ...] = ()
    events: Tuple[str, ...] = ()

    def on_open(self, span: "Span") -> None:
        pass

    def on_close(self, span: "Span") -> None:
        pass

    def on_event(self, kind: str, fields: Dict[str, Any]) -> None:
        """``fields`` is shared by every consumer: read, never mutate."""

    def for_worker(self) -> Optional["Observer"]:
        return None


def _matches(patterns: Tuple[str, ...], name: str) -> bool:
    return any(
        pattern in ("*", name)
        or (pattern.endswith(".*") and name.startswith(pattern[:-1]))
        for pattern in patterns
    )


class Span:
    """An open span: a context manager whose ``attrs`` every consumer
    shares, timed by ``start``/``end`` (``perf_counter`` seconds)."""

    __slots__ = ("name", "attrs", "start", "end", "_observers")

    def __init__(
        self, name: str, attrs: Dict[str, Any], consumers: Tuple[Observer, ...]
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.start = self.end = 0.0
        self._observers = consumers

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        for observer in self._observers:
            observer.on_open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        for observer in reversed(self._observers):
            observer.on_close(self)
        return False

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def add(self, key: str, count: int = 1) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + count


class _NoopSpan:
    """The shared span for names no installed observer consumes."""

    __slots__ = ()
    attrs = MappingProxyType({})

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def add(self, key: str, count: int = 1) -> None:
        pass


_NOOP = _NoopSpan()


class _Registry:
    """One install: its observers and their memoised per-name routes."""

    def __init__(self, installed: Tuple[Observer, ...]) -> None:
        self.observers = installed
        self.spans: Dict[str, Tuple[Observer, ...]] = {}
        self.events: Dict[str, Tuple[Observer, ...]] = {}

    def route(self, table: str, name: str) -> Tuple[Observer, ...]:
        consumers = tuple(
            o for o in self.observers if _matches(getattr(o, table), name)
        )
        getattr(self, table)[name] = consumers
        return consumers


_REGISTRY: Optional[_Registry] = None


def span(name: str, **attrs: Any):
    """Open a span for the installed observers (a shared no-op if none)."""
    registry = _REGISTRY
    if registry is None:
        return _NOOP
    consumers = registry.spans.get(name)
    if consumers is None:
        consumers = registry.route("spans", name)
    return Span(name, attrs, consumers) if consumers else _NOOP


def event(kind: str, **fields: Any) -> None:
    """Offer one event to the installed observers (no-op if none)."""
    registry = _REGISTRY
    if registry is None:
        return
    consumers = registry.events.get(kind)
    if consumers is None:
        consumers = registry.route("events", kind)
    for observer in consumers:
        observer.on_event(kind, fields)


def observers() -> Tuple[Observer, ...]:
    """The installed observers, in install order."""
    return _REGISTRY.observers if _REGISTRY is not None else ()


_O = TypeVar("_O", bound=Observer)


def active(kind: Type[_O]) -> Optional[_O]:
    """The first installed observer of type ``kind``, if any."""
    return next((o for o in observers() if isinstance(o, kind)), None)


def install(*installed: Observer) -> Tuple[Observer, ...]:
    """Replace the installed observers (none: observation off); returns
    the previous ones."""
    global _REGISTRY
    previous = observers()
    _REGISTRY = _Registry(installed) if installed else None
    return previous


@contextmanager
def observing(*added: Observer) -> Iterator[None]:
    """Add ``added`` to the installed observers for a ``with`` block."""
    previous = install(*observers(), *added)
    try:
        yield
    finally:
        install(*previous)


def for_workers() -> Tuple[Observer, ...]:
    """The pool-worker counterparts of the installed observers."""
    counterparts = (observer.for_worker() for observer in observers())
    return tuple(o for o in counterparts if o is not None)
