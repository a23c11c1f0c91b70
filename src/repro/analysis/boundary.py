"""The declarative trusted/untrusted module map behind every seglint rule.

``analysis/boundary.toml`` classifies each ``repro.*`` module relative to
the enclave boundary of paper Fig. 1:

* ``trusted`` — modules that run inside the enclave (the TCB).  A test
  asserts this list stays a superset of
  ``SeGShareEnclave.TCB_MODULES``, so the map cannot silently drift from
  the measured enclave.
* ``untrusted`` — host-side code: the client, the server host process,
  storage backends, baselines, the CLI.
* ``internal`` — the subset of trusted modules whose names untrusted
  code must not import at all (beyond explicit per-module allow lists);
  everything else trusted-but-not-internal is shared wire format or
  dual-use library code.

Modules in neither list (bench harness, netsim, faults) are experiment
scaffolding the boundary rules do not constrain.

Rule-specific knobs live under ``[rules.<rule-id>]`` tables and are
handed to the rules verbatim via :meth:`BoundaryMap.rule`.
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


class BoundaryError(Exception):
    """The boundary map is missing, malformed, or inconsistent."""


def _match(name: str, patterns: tuple[str, ...]) -> bool:
    return any(
        name == pattern or fnmatch.fnmatchcase(name, pattern) for pattern in patterns
    )


@dataclass(frozen=True)
class BoundaryMap:
    """Parsed form of ``analysis/boundary.toml``."""

    trusted: tuple[str, ...]
    untrusted: tuple[str, ...]
    internal: tuple[str, ...]
    rules: dict[str, dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "BoundaryMap":
        path = Path(path)
        try:
            with path.open("rb") as handle:
                data = tomllib.load(handle)
        except FileNotFoundError:
            raise BoundaryError(f"boundary map not found: {path}") from None
        except tomllib.TOMLDecodeError as exc:
            raise BoundaryError(f"malformed boundary map {path}: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BoundaryMap":
        modules = data.get("modules")
        if not isinstance(modules, dict):
            raise BoundaryError("boundary map needs a [modules] table")
        trusted = tuple(modules.get("trusted", ()))
        untrusted = tuple(modules.get("untrusted", ()))
        internal = tuple(modules.get("internal", ()))
        for name, values in (("trusted", trusted), ("untrusted", untrusted), ("internal", internal)):
            if not all(isinstance(v, str) for v in values):
                raise BoundaryError(f"[modules].{name} must be a list of module patterns")
        overlap = [
            pattern for pattern in untrusted if _match_any_pattern(pattern, trusted)
        ]
        if overlap:
            raise BoundaryError(
                f"modules classified both trusted and untrusted: {overlap}"
            )
        rules = data.get("rules", {})
        if not isinstance(rules, dict):
            raise BoundaryError("[rules] must be a table of per-rule tables")
        return cls(
            trusted=trusted,
            untrusted=untrusted,
            internal=internal,
            rules=rules,
        )

    # -- classification --------------------------------------------------------

    def is_trusted(self, module: str) -> bool:
        return _match(module, self.trusted)

    def is_untrusted(self, module: str) -> bool:
        return _match(module, self.untrusted)

    def is_internal(self, module: str) -> bool:
        return _match(module, self.internal)

    def rule(self, rule_id: str) -> dict[str, Any]:
        """The ``[rules.<rule_id>]`` table (empty when absent)."""
        table = self.rules.get(rule_id, {})
        if not isinstance(table, dict):
            raise BoundaryError(f"[rules.{rule_id}] must be a table")
        return table

    def rule_modules(self, rule_id: str, default: tuple[str, ...]) -> tuple[str, ...]:
        """Module patterns a rule applies to (rule table override or default)."""
        modules = self.rule(rule_id).get("modules")
        if modules is None:
            return default
        return tuple(modules)


def _match_any_pattern(pattern: str, patterns: tuple[str, ...]) -> bool:
    # Exact names can be checked against the other side's patterns; two
    # glob patterns are compared only for literal equality.
    if "*" in pattern:
        return pattern in patterns
    return _match(pattern, patterns)
