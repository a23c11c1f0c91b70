"""Count Python-level calls — a cost measure that repeats exactly.

The same technique as ``trace.py_calls_per_op`` in ``benchmarks/e2e``:
``sys.setprofile`` delivers one ``call`` event per Python frame entered
(functions, comprehensions on 3.11, and every *resume* of a generator),
and none for C builtins.  Scaling tests compare counts at two sizes, so
they need no timer and no tolerance for a noisy machine — nor for the
garbage collector, which is kept out of the window.
"""

from __future__ import annotations

import gc
import sys
from typing import Any, Callable


def python_calls(fn: Callable[[], Any]) -> int:
    """Python ``call`` events raised while ``fn()`` runs (``fn``'s own included)."""
    calls = 0

    def profiler(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    # A cyclic-GC pass inside the window would finalize suspended
    # generators, and each finalization raises ``call`` events of its own:
    # collect before the window and keep the collector off during it.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()
    return calls
