"""A machine-speed yardstick for the wall-clock metrics.

The benchmark runs on small shared VMs whose speed drifts: with nothing
else running in the guest, user CPU time equals wall time and yet the same
round takes 1.0x to 1.6x as long for seconds to minutes at a stretch
(co-tenants on the host).  Medians over rounds tame the fast part; a slow
phase that outlasts a run shifts every wall number of that run.

So a fixed, stdlib-only kernel — a little of what the program does:
interpreter work on dicts and ints, pointer chasing through a few MB of
objects, HMAC/SHA-256 over 4 KiB and 1 MiB buffers, bytes copies — is
timed between rounds, and the end-to-end wall metrics are divided by
``median(kernel seconds) / NOMINAL_S``: "seconds at nominal machine
speed".  The kernel knows nothing of ``src/``, so no change to the program
can move it.  On thirty ``bulk_stream`` runs inside one noisy phase this
took the run-to-run coefficient of variation from 8.0 % to 4.5 %
(correlation of kernel and round time 0.84).
"""

from __future__ import annotations

import hashlib
import hmac
import random
import struct
import time

from . import stats

#: Kernel seconds on the box the baseline was taken on, in a quiet phase;
#: a factor of 1.0 therefore means "as fast as that".
NOMINAL_S = 0.0100

_CHASE_OBJECTS = 250_000
_CHASE_STEPS = 20_000
_SMALL = bytes(range(256)) * 16  # 4 KiB
_LARGE = bytes(1 << 20)


class Calibration:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._objects = [rng.getrandbits(62) for _ in range(_CHASE_OBJECTS)]
        self._walk = [rng.randrange(_CHASE_OBJECTS) for _ in range(_CHASE_STEPS)]
        self._samples: list[float] = []

    def sample(self) -> None:
        """Time one run of the kernel."""
        started = time.perf_counter()
        objects = self._objects
        acc = 0
        for index in self._walk:  # cache-missing loads of boxed ints
            acc ^= objects[index]
        table: dict[int, int] = {}
        for i in range(10_000):  # interpreter, dict and small-int work
            table[i & 1023] = acc
            acc += i ^ (acc >> 3)
        parts = []
        for i in range(100):  # what a record or a PFS chunk costs
            tag = hmac.new(b"k" * 32, _SMALL, hashlib.sha256).digest()
            parts.append(struct.pack(">I", i) + _SMALL[: 64 + (i & 63)] + tag)
        b"".join(parts)
        for _ in range(2):  # bulk hashing and copying
            hashlib.sha256(_LARGE).digest()
            bytes(bytearray(_LARGE))
        self._samples.append(time.perf_counter() - started)

    def take_factor(self) -> float:
        """Median kernel time since the last call, relative to NOMINAL_S:
        above 1.0 the machine was slower than nominal."""
        factor = stats.median(self._samples) / NOMINAL_S
        self._samples = []
        return factor
