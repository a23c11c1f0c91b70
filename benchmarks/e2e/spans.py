"""In-memory span recorder for the traced pass.

The program under test is single-threaded (concurrency is simulated in
virtual time), so one parent stack is enough: a span's parent is whatever
span was open when it began.  Layers are measured from *outside* — the
recorder wraps public callables on the live classes and removes the
wrappers afterwards; nothing in ``src/`` knows it exists.

A span is the list ``[name, layer, t0, t1, parent, op_id, n]`` (indices
below).  ``parent`` is an index into ``Recorder.spans`` (-1 for a root),
``op_id`` is the client operation that was executing when the span began
(all spans of one client op share it) and ``n`` is an optional size in
bytes supplied by the wrapper.
"""

from __future__ import annotations

import json
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Iterator

NAME, LAYER, T0, T1, PARENT, OP_ID, SIZE = range(7)

_MISSING = object()

#: ``size(result, args, kwargs) -> int`` — bytes the wrapped call handled.
SizeFn = Callable[[Any, tuple, dict], int]


class Recorder:
    """Records nested spans and installs/removes the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: The client operation currently executing; the harness sets it
        #: around every op so work done lazily (a response generator
        #: drained by the TLS layer) is attributed to the consuming op.
        self.op_id: int | None = None
        self._installed: list[tuple[type, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, self._clock(), None, parent, self.op_id, 0])
        self._stack.append(index)
        return index

    def end(self, index: int, size: int = 0) -> None:
        span = self.spans[index]
        span[T1] = self._clock()
        span[SIZE] = size
        popped = self._stack.pop()
        assert popped == index, "spans must close innermost first"

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        index = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(index)

    # -- wrapper factory --------------------------------------------------------

    def wrap(
        self, fn: Callable[..., Any], name: str, layer: str, size: SizeFn | None = None
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        A call that returns a generator does its work when the generator
        is drained, not when it is created; the result is therefore
        re-wrapped so every resumption is its own span, parented to (and
        carrying the op id of) whoever consumes it.
        """

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name, layer)
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    nbytes = size(result, args, kwargs)
            finally:
                self.end(index, nbytes)
            if isinstance(result, types.GeneratorType):
                return self._drain(result, name, layer)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _drain(self, gen: Iterator[Any], name: str, layer: str) -> Iterator[Any]:
        while True:
            index = self.begin(name, layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.end(index)
            yield item

    def wrap_context(
        self, fn: Callable[..., Any], name: str, layer: str
    ) -> Callable[..., Any]:
        """Wrap a callable that returns a context manager.

        The layer's own work happens in ``__enter__`` and ``__exit__``;
        the body in between belongs to the caller.  Each half gets a span.
        """

        @contextmanager
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            manager = fn(*args, **kwargs)
            with self.span(name + ".enter", layer):
                value = manager.__enter__()
            try:
                yield value
            except BaseException as exc:
                with self.span(name + ".exit", layer):
                    suppressed = manager.__exit__(type(exc), exc, exc.__traceback__)
                if not suppressed:
                    raise
            else:
                with self.span(name + ".exit", layer):
                    manager.__exit__(None, None, None)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- install / remove ---------------------------------------------------------

    def install(
        self,
        owner: type,
        attr: str,
        layer: str,
        size: SizeFn | None = None,
        context: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper until :meth:`remove`."""
        original = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"
        wrapped = (
            self.wrap_context(original, name, layer)
            if context
            else self.wrap(original, name, layer, size)
        )
        # Remember what the class itself defined (not what it inherited),
        # so removal leaves ``owner.__dict__`` exactly as it was.
        self._installed.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        """Undo every :meth:`install`, newest first."""
        while self._installed:
            owner, attr, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- output -------------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "layer", "t0", "t1", "parent", "op_id", "bytes")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [span[T1] - span[T0] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[T1] - span[T0]
    return out
