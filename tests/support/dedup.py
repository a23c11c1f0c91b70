"""The object store's records as stored, for tests that check refcounts.

The enclave keeps no copy of the ``idx:`` records: a test that asks which
object a name points at, or which objects are referenced, decodes the
records themselves with the store's own decoder.
"""

from __future__ import annotations

from repro.core.dedup import DedupStore, decode_record


def stored_records(dedup: DedupStore) -> dict[str, tuple[str, int]]:
    """name -> (object id, reference count), one entry per stored record."""
    pfs = dedup._pfs
    return {path[len("idx:"):]: decode_record(pfs.read_file(path)) for path in sorted(pfs.owners("idx:"))}
