"""Lightweight span tracing for the per-frame hot path.

A :class:`Tracer` records context-manager *spans* with parent/child
nesting, monotonic-clock timing and free-form tags (frame index, camera
id, policy, ...). Records are kept in start order, so a finished trace is
a pre-order traversal of the span forest and its *structure* (names,
nesting, counts) is deterministic for a seeded run even though the
measured durations are not.

Call sites never take a tracer parameter. They fetch the ambient tracer
via :func:`get_tracer`, which returns the shared :data:`NOOP_TRACER`
unless someone activated a real tracer with :func:`use_tracer`. The no-op
path allocates nothing and reuses a single stateless span object, so
instrumentation left in the hot path is effectively free when disabled.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
import time
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)


@runtime_checkable
class Clock(Protocol):
    """The injectable-clock protocol: anything with ``now() -> float``.

    Satisfied by :class:`WallClock` (host time) and by any fake clock a
    test injects, so consumers never care which timebase they are on.
    """

    def now(self) -> float: ...


class WallClock:
    """The host's monotonic clock, behind the injectable-clock seam.

    Everything in the runtime that measures *host* time (span durations,
    per-frame wall time) reads it through a clock object rather than
    calling :func:`time.perf_counter` directly, so tests can substitute
    a deterministic clock.
    This module is the only runtime home of the wall clock — it is on the
    reprolint RL002 allowlist precisely because host measurement is
    excluded from the determinism guarantee.
    """

    __slots__ = ()

    def now(self) -> float:
        """Monotonic seconds; only differences are meaningful."""
        return time.perf_counter()


#: The shared wall clock instance injected by default.
WALL_CLOCK = WallClock()


@dataclass
class SpanRecord:
    """One finished (or in-flight) span, as stored by the tracer."""

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    start_ms: float  # offset from the tracer's epoch, monotonic clock
    duration_ms: float = 0.0
    tags: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (tags last, keys stable)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            span_id=int(data["span_id"]),
            parent_id=(
                None if data["parent_id"] is None else int(data["parent_id"])
            ),
            name=str(data["name"]),
            depth=int(data["depth"]),
            start_ms=float(data["start_ms"]),
            duration_ms=float(data["duration_ms"]),
            tags=dict(data.get("tags", {})),
        )


class _NoopSpan:
    """Reusable do-nothing span; the entire disabled-mode cost."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set_tag(self, key: str, value: Any) -> "_NoopSpan":
        return self

    @property
    def duration_ms(self) -> float:
        return 0.0


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager bound to one :class:`SpanRecord` of a live tracer."""

    __slots__ = ("_tracer", "_record", "_start")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._start = time.perf_counter()
        self._tracer._push(self._record, self._start)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._record.duration_ms = (time.perf_counter() - self._start) * 1e3
        self._tracer._pop(self._record)
        return False

    def set_tag(self, key: str, value: Any) -> "_ActiveSpan":
        self._record.tags[key] = value
        return self

    @property
    def duration_ms(self) -> float:
        return self._record.duration_ms


class NoopTracer:
    """Disabled tracer: every span is the shared no-op span."""

    enabled = False

    def span(self, name: str, **tags: Any) -> _NoopSpan:
        return _NOOP_SPAN

    @property
    def records(self) -> List[SpanRecord]:
        return []


#: The process-wide disabled tracer; what :func:`get_tracer` returns by default.
NOOP_TRACER = NoopTracer()


class Tracer:
    """Collects spans for one traced run."""

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._records: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self._next_id = 0

    def span(self, name: str, **tags: Any) -> _ActiveSpan:
        """Open a span; use as a context manager. Nesting follows the
        runtime call stack: the innermost open span is the parent."""
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            depth=0 if parent is None else parent.depth + 1,
            start_ms=0.0,
            tags=dict(tags),
        )
        self._next_id += 1
        return _ActiveSpan(self, record)

    @property
    def records(self) -> List[SpanRecord]:
        """All spans in start order (pre-order traversal of the forest)."""
        return list(self._records)

    # -- internal ------------------------------------------------------
    def _push(self, record: SpanRecord, start: float) -> None:
        record.start_ms = (start - self._epoch) * 1e3
        self._records.append(record)
        self._stack.append(record)

    def _pop(self, record: SpanRecord) -> None:
        if not self._stack or self._stack[-1] is not record:
            raise RuntimeError(
                f"span {record.name!r} closed out of order; open stack: "
                f"{[r.name for r in self._stack]}"
            )
        self._stack.pop()


_current: Any = NOOP_TRACER


def get_tracer() -> Any:
    """The ambient tracer (the no-op tracer unless a run activated one)."""
    return _current


@contextmanager
def use_tracer(tracer: Any) -> Iterator[Any]:
    """Activate ``tracer`` as the ambient tracer for the enclosed block."""
    global _current
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous
