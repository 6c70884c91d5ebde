"""Outside-in layer tracer: wraps a layer's public functions from outside.

Every wrapped call opens a *frame* on the calling thread's own stack.
When the frame closes, its duration is charged to its layer and added
to the parent frame's covered time, so each layer's self-time is its
duration minus the part covered by wrapped calls it made on the same
thread.  Stacks are per thread because ``fftlib.map_conditions`` runs
condition tasks on a pool: a shared stack would hand a pool thread's
work to whatever frame the main thread had open.

In memory mode every frame also records the tracemalloc peak reached
while it was open, relative to the traced memory at entry.  tracemalloc
keeps one global peak, so each entry and exit folds the current peak
into every open frame (on every thread) before resetting it; under
concurrency a frame's peak is therefore an upper bound.

Nothing here imports the program: :func:`patch` swaps an attribute on
whatever module or class it is handed.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional


@dataclass
class LayerStat:
    """Aggregate over every closed frame of one layer."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    peak_bytes: int = 0


class _Frame:
    __slots__ = ("name", "t0", "covered", "mem0", "peak")

    def __init__(self, name: str, t0: float, mem0: int) -> None:
        self.name = name
        self.t0 = t0
        self.covered = 0.0
        self.mem0 = mem0
        self.peak = mem0


class LayerTracer:
    """Per-thread frame stacks aggregated into :class:`LayerStat` rows.

    ``active`` gates recording: wrappers installed by :func:`patch` call
    straight through while it is False, so a process can trace its
    set-up or its solves and leave the output checks untraced.
    ``only``, when set, restricts recording to those layer names (the
    memory pass frames just the layers whose peaks it reports).
    ``totals`` holds free-form sums a wrapper adds with :meth:`add`.
    """

    def __init__(
        self, memory: bool = False, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.memory = memory
        self.clock = clock
        self.active = False
        self.only: Optional[FrozenSet[str]] = None
        self.stats: Dict[str, LayerStat] = {}
        self.totals: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: List[_Frame] = []  # every open frame, all threads

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _fold_peak(self) -> int:
        """Fold tracemalloc's peak into all open frames, then reset it."""
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._open:
            if peak > frame.peak:
                frame.peak = peak
        tracemalloc.reset_peak()
        return current

    def enter(self, name: str) -> _Frame:
        mem0 = 0
        if self.memory:
            with self._lock:
                mem0 = self._fold_peak()
                frame = _Frame(name, 0.0, mem0)
                self._open.append(frame)
        else:
            frame = _Frame(name, 0.0, mem0)
        self._stack().append(frame)
        frame.t0 = self.clock()
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the top of this thread's stack); return its
        duration."""
        dur = self.clock() - frame.t0
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].covered += dur
        with self._lock:
            if self.memory:
                self._fold_peak()
                self._open.remove(frame)
            stat = self.stats.get(frame.name)
            if stat is None:
                stat = self.stats[frame.name] = LayerStat()
            stat.calls += 1
            stat.total_s += dur
            stat.self_s += dur - frame.covered
            stat.peak_bytes = max(stat.peak_bytes, frame.peak - frame.mem0)
        return dur

    def records(self, name: Optional[str]) -> bool:
        """Whether a call of layer ``name`` opens a frame right now."""
        return (
            self.active
            and name is not None
            and (self.only is None or name in self.only)
        )

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.totals[key] = self.totals.get(key, 0.0) + value

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a frame named ``name`` (when recording)."""
        if not self.records(name):
            return fn(*args, **kwargs)
        frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def wrap(self, name: Any, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return a traced stand-in for ``fn``.

        ``name`` is a layer name, or a callable mapping the call's
        ``(args, kwargs)`` to one (``None`` leaves the call untraced).
        """
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            layer = namer(args, kwargs) if namer is not None else name
            if not self.records(layer):
                return fn(*args, **kwargs)
            frame = self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return wrapper

    def reset(self) -> None:
        with self._lock:
            self.stats = {}
            self.totals = {}


def patch(owner: Any, attr: str, replacement: Callable[[Any], Any]) -> None:
    """Set ``owner.attr = replacement(original)``.

    Class attributes are read from ``__dict__`` so an inherited method is
    not copied onto a subclass by accident.
    """
    original = (
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    )
    setattr(owner, attr, replacement(original))
