"""Bench-side layer timer: inclusive and self time per wrapped function.

The timer never edits the program.  It wraps functions from the
outside (:class:`Patches` swaps class and module attributes and puts the
original objects back), and each wrapper books one call into a
:class:`LayerTimer`:

* ``incl_s`` -- wall time from entry to return;
* ``self_s`` -- inclusive time minus the inclusive time of the wrapped
  calls made inside it.

The nesting stack is a :mod:`contextvars` variable, so every thread and
every asyncio task keeps its own stack: work on a thread pool is a root
in its worker thread (summed self time can then exceed wall time, which
is reported as is), and two coroutines interleaving on one event loop
never see each other's frames.  A hop onto an executor keeps its parent
only where the caller copies its context across on purpose (see
:func:`carry_context`).

A call nested directly inside a call of the same layer name (a subclass
method calling ``super()``) is folded into the outer call, so a layer's
``calls`` counts entries into the layer, not Python frames.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class _Frame:
    """One open call: its layer name and the time its children took."""

    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class LayerTimer:
    """Collects calls, inclusive and self time per layer name.

    Args:
        clock: zero-argument callable returning seconds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._current: contextvars.ContextVar[Optional[_Frame]] = (
            contextvars.ContextVar(f"perfbench_frame_{id(self)}", default=None)
        )
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = {}
        self.incl_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def _book(
        self,
        name: str,
        elapsed: float,
        frame: _Frame,
        parent: Optional[_Frame],
    ) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl_s[name] = self.incl_s.get(name, 0.0) + elapsed
            self.self_s[name] = (
                self.self_s.get(name, 0.0) + elapsed - frame.child_s
            )
            if parent is not None:
                parent.child_s += elapsed

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a plain event counter (no timing)."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` (sync or ``async def``) booking ``name``."""
        current = self._current
        clock = self.clock
        book = self._book

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                if parent is not None and parent.name == name:
                    return await fn(*args, **kwargs)
                frame = _Frame(name)
                token = current.set(frame)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    current.reset(token)
                    book(name, elapsed, frame, parent)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = current.get()
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            token = current.set(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                current.reset(token)
                book(name, elapsed, frame, parent)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that only counts calls under ``name``."""
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            count(name)
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, incl_s, self_s)}`` for every booked layer."""
        with self._lock:
            return {
                name: (self.calls[name], self.incl_s[name], self.self_s[name])
                for name in self.calls
            }


def carry_context(original_wrap: Callable) -> Callable:
    """Replacement for an executor-hop helper that keeps the timer stack.

    ``original_wrap(fn)`` binds ``fn`` to its caller's context for the
    program's own tracer (and returns ``fn`` unchanged while that tracer
    is off).  The replacement also runs the bound callable in a copy of
    the caller's context, so a wrapped call on the worker thread nests
    under the wrapped call that submitted it.
    """

    @functools.wraps(original_wrap)
    def replacement(fn: Callable) -> Callable:
        inner = original_wrap(fn)
        ctx = contextvars.copy_context()

        @functools.wraps(fn)
        def bound(*args: Any, **kwargs: Any) -> Any:
            # One Context cannot be entered by two threads at once.
            return ctx.copy().run(inner, *args, **kwargs)

        return bound

    return replacement


class Patches:
    """Attribute swaps with exact restoration.

    :meth:`set` records the original object of ``owner.attr`` (looked up
    in ``owner.__dict__``, so an inherited method is never copied onto a
    subclass) before replacing it; :meth:`restore` puts every original
    back in reverse order.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        if attr not in vars(owner):
            raise AttributeError(
                f"{getattr(owner, '__name__', owner)!r} defines no {attr!r}"
            )
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> List[Tuple[Any, str, Any]]:
        """Put every original back; returns the (owner, attr, original)s."""
        restored = []
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return restored


def is_restored(restored: List[Tuple[Any, str, Any]]) -> bool:
    """True when every attribute in ``restored`` ``is`` its original."""
    return all(
        vars(owner).get(attr) is original
        for owner, attr, original in restored
    )


def wrapper_floor_s(repeats: int = 7, calls: int = 20_000) -> float:
    """Median cost one timed wrapper adds to a call of a no-op function."""

    def noop() -> None:
        return None

    timer = LayerTimer()
    wrapped = timer.timed("floor", noop)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        samples.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(samples)
