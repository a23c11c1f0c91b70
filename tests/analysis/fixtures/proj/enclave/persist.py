"""crashpoint-coverage fixture: persisted mutations and their crashpoints.

``write_covered`` declares a crashpoint a fixture crash test names;
``prune`` declares one nothing exercises (dead assurance);
``write_uncovered`` mutates with no crashpoint at all;
``discard_tracking`` calls ``set.remove``, which is not persistence.
``Ledger.append`` names its crashpoint through a class constant, so each
subclass's value is a declared id: ``CoveredLedger``'s is exercised,
``DeadLedger``'s is not.  A ranged write is a persisted mutation too, as
a backend's ``put_range`` or as ``os.pwrite``: the ``*_range_*`` and
``pwrite_*`` pairs are flagged without a crashpoint and pass with one.
"""

import os


class Pager:
    def __init__(self, platform, backend):
        self.platform = platform
        self.backend = backend
        self.seen = set()

    def write_covered(self, path, data):
        self.platform.crashpoint("fix:page-write")
        self.backend.raw_write(path, data)

    def write_uncovered(self, path, data):
        self.backend.raw_write(path, data)

    def prune(self, path):
        self.platform.crashpoint("fix:page-prune")
        self.backend.raw_delete(path)

    def discard_tracking(self, item):
        self.seen.remove(item)

    def write_range_covered(self, path, offset, blobs):
        self.platform.crashpoint("fix:page-write")
        self.backend.put_range(path, offset, blobs)

    def write_range_uncovered(self, path, offset, blobs):
        self.backend.put_range(path, offset, blobs)

    def pwrite_covered(self, fd, data, offset):
        os.pwrite(fd, data, offset)
        self.platform.crashpoint("fix:page-write")

    def pwrite_uncovered(self, fd, data, offset):
        os.pwrite(fd, data, offset)


class Ledger:
    _SITE: str

    def __init__(self, platform, backend):
        self.platform = platform
        self.backend = backend

    def append(self, path, data):
        self.platform.crashpoint(self._SITE)
        self.backend.raw_write(path, data)


class CoveredLedger(Ledger):
    _SITE = "fix:ledger-covered"


class DeadLedger(Ledger):
    _SITE = "fix:ledger-dead"
