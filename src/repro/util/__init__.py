"""Small shared utilities: length-prefixed binary serialization."""

from repro.util.serialization import Reader, Writer

__all__ = ["Reader", "Writer"]
