"""Abandon a bare-journal batch at a chosen crashpoint.

A ``WriteAheadJournal`` built with ``crash_hook=stop_at(site, nth)``
raises :class:`StopHere` the ``nth`` time it reaches ``site``, leaving the
stores exactly as a crash there would; the test then recovers with a
fresh journal over the same stores.
"""

from __future__ import annotations

from typing import Callable


class StopHere(Exception):
    """Raised by a crash hook to abandon a batch at a chosen journal step."""


def stop_at(site: str, nth: int = 1) -> Callable[[str], None]:
    seen = [0]

    def hook(reached: str) -> None:
        if reached == site:
            seen[0] += 1
            if seen[0] == nth:
                raise StopHere(site)

    return hook
