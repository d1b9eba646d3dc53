"""Outside-in layer timing for the benchmark.

Nothing under ``src/`` knows it is being measured: a :class:`LayerTracer`
wraps the layers' public callables from here with ``perf_counter_ns``
accumulators while it is installed, and puts the originals back when it
is removed. A :class:`FrameClock` does the same for
``RunResult.add`` to time each frame from outside.

Wrapped calls nest (``schedule`` contains ``associate`` contains the KNN
predictions), so every probe reports *self* time: its wall time minus
the wall time of the probes that ran inside it. Summing self time over
all probes therefore never counts an interval twice. An ``inclusive``
probe instead reports the wall time of its outermost call and stays out
of the self-time tree; the experiments layer uses it to measure "time
inside a simulation" around everything nested in it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``count(args, kwargs, result) -> number`` for one wrapped call.
CountFn = Callable[[tuple, dict, Any], float]


@dataclass(frozen=True)
class Probe:
    """One wrapped callable and the metrics it feeds.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``. A
    module-level function is replaced at every ``repro`` module that
    holds it, so each import site is counted. ``metric`` accumulates
    time; several probes may share one metric name. ``calls`` (when set)
    names a metric counting invocations, and ``counts`` maps further
    metric names to functions of the call.
    """

    metric: str
    target: str
    calls: Optional[str] = None
    counts: Tuple[Tuple[str, CountFn], ...] = ()
    inclusive: bool = False


class LayerTracer:
    """Installs a set of probes and accumulates their totals.

    ``totals_ns`` holds nanoseconds per time metric and ``counts`` the
    count metrics. Both accumulate across install/remove cycles until
    :meth:`reset`. Use as a context manager around the traced work.
    """

    def __init__(
        self,
        probes: Sequence[Probe],
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.probes = tuple(probes)
        self._clock = clock
        self.totals_ns: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[List[int]] = []
        self._depth: Dict[str, int] = {}
        # (owner, attribute, original, wrapper)
        self._sites: List[Tuple[object, str, object, object]] = []
        for probe in self.probes:
            self.totals_ns.setdefault(probe.metric, 0)
            if probe.calls:
                self.counts.setdefault(probe.calls, 0)
            for name, _ in probe.counts:
                self.counts.setdefault(name, 0)
            original, owners = _resolve(probe.target)
            wrapper = self._wrap(probe, original)
            for owner, attr in owners:
                if any(o is owner and a == attr for o, a, _, _ in self._sites):
                    raise ValueError(
                        f"{probe.target}: more than one probe on one callable"
                    )
                self._sites.append((owner, attr, original, wrapper))
        self.installed = False

    def reset(self) -> None:
        """Zero every accumulator."""
        for key in self.totals_ns:
            self.totals_ns[key] = 0
        for key in self.counts:
            self.counts[key] = 0

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("layer tracer already installed")
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self.installed = True

    def remove(self) -> None:
        """Put every original callable back where it was found."""
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)
        self._stack.clear()
        self._depth.clear()
        self.installed = False

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    def originals(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every patched site."""
        return [(owner, attr, orig) for owner, attr, orig, _ in self._sites]

    def _wrap(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        totals = self.totals_ns
        counts = self.counts
        metric = probe.metric
        calls = probe.calls
        count_fns = probe.counts
        clock = self._clock

        def tally(args: tuple, kwargs: dict, result: Any) -> None:
            if calls:
                counts[calls] += 1
            for name, count in count_fns:
                counts[name] += count(args, kwargs, result)

        if probe.inclusive:
            depth = self._depth

            def inclusive_wrapper(*args: Any, **kwargs: Any) -> Any:
                level = depth.get(metric, 0)
                depth[metric] = level + 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    depth[metric] = level
                    if level == 0:
                        totals[metric] += clock() - start
                tally(args, kwargs, result)
                return result

            return functools.update_wrapper(inclusive_wrapper, fn)

        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell = [0]  # wall time of probes nested inside this call
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[metric] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
            tally(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)


class FrameClock:
    """Times frames from outside, as gaps between ``RunResult.add`` calls.

    The gap between two consecutive adds to the *same* result is that
    frame's host latency, so work done between frames (a checkpoint
    write) counts against the frame it delays. The first frame of each
    result has no predecessor and contributes no gap. ``results`` lists
    every result seen, in order, for quality figures and fingerprints.
    """

    def __init__(self, result_cls: type) -> None:
        self._cls = result_cls
        self._original = result_cls.__dict__["add"]
        self.frame_ns: List[int] = []
        self.key_frame_ns: List[int] = []
        self.results: List[Any] = []
        self.frames = 0

    def __enter__(self) -> "FrameClock":
        original = self._original
        clock = time.perf_counter_ns
        frame_ns = self.frame_ns
        key_frame_ns = self.key_frame_ns
        results = self.results
        last: List[Any] = [None, 0]

        def add(result: Any, record: Any) -> None:
            now = clock()
            if result is last[0]:
                gap = now - last[1]
                frame_ns.append(gap)
                if record.is_key_frame:
                    key_frame_ns.append(gap)
            else:
                results.append(result)
            last[0] = result
            last[1] = now
            self.frames += 1
            original(result, record)

        setattr(self._cls, "add", functools.update_wrapper(add, original))
        return self

    def __exit__(self, *exc: object) -> None:
        setattr(self._cls, "add", self._original)


def _resolve(target: str) -> Tuple[Any, List[Tuple[object, str]]]:
    """The callable behind ``target`` and every ``(owner, attr)`` holding it."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    parts = path.split(".")
    if len(parts) == 2:
        cls = getattr(module, parts[0])
        attr = parts[1]
        for klass in cls.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr], [(klass, attr)]
        raise AttributeError(f"{target}: no attribute {attr!r}")
    fn = getattr(module, path)
    owners: List[Tuple[object, str]] = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (
            name == module_name or name == "repro" or name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                owners.append((mod, attr))
    return fn, owners
