"""Rule ``crashpoint-coverage``: crash testing covers the mutation surface.

The crash-matrix suites (PR 1/5/6/7) work by sweeping
``FaultPlan.crash_at_point(nth, site_prefix)`` over the crashpoints a
workload passes, so their guarantee is exactly as strong as the
crashpoint placement: a persisted-mutation site with no crashpoint is a
crash window no matrix will ever schedule, and a declared crashpoint no
test names is dead assurance — it looks covered in the source while
nothing exercises it.  This rule proves the coverage bidirectionally:

* **declared -> exercised**: every crashpoint ID declared in the scoped
  source modules (under the configured prefixes — ``journal:``,
  ``anchor:``, ``diskstore:``, ``cluster:``) must be matched by a string
  literal in the crash-test tree (``test_paths``, resolved relative to
  the boundary file).  Test literals act as prefixes, mirroring
  ``crash_at_point`` semantics: a test naming ``journal:`` exercises
  every ``journal:*`` site.  An ID is a string literal at the call
  site, or ``self.NAME`` naming class-level string constants (a shared
  base class declares each subclass's ID).
* **mutating -> declared**: every function in the configured mutation
  modules that performs a persisted mutation (a bare configured call
  such as ``raw_write``, an ``os``-module call such as ``os.replace`` or
  ``os.pwrite``, or a ``put``/``put_range``/``delete`` through a
  backend-shaped receiver) must contain a crashpoint call, so the matrix
  can schedule a crash against it.

Recovery-path mutations that must *not* carry crashpoints (a crashpoint
inside restore would let the fault plan kill the recovering — or in the
cluster, the succeeding — enclave, which the single-crash matrices by
design never do) are baselined with that rationale rather than
suppressed inline.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.analysis.engine import Finding
from repro.analysis.rules.base import call_name, segments

if TYPE_CHECKING:
    from repro.analysis.callgraph import CallGraph, FunctionInfo
    from repro.analysis.engine import AnalysisContext

RULE = "crashpoint-coverage"

_DEFAULT_PREFIXES = ("journal:", "anchor:", "diskstore:", "cluster:")
_DEFAULT_CRASHPOINT_CALLS = ("crashpoint", "_crashpoint", "crash_hook")
_DEFAULT_MUTATION_CALLS = (
    "raw_write",
    "raw_delete",
)
#: ``replace``/``remove``/``unlink``/``pwrite`` are persisted mutations only
#: as ``os``-module calls; the same bare names on sets and dicts are not.
_DEFAULT_OS_CALLS = ("replace", "remove", "unlink", "pwrite")
_DEFAULT_OS_RECEIVERS = ("os",)
#: ``put``/``put_range``/``delete``/``rename`` only count as persisted
#: mutations when they go through a raw-backend-shaped receiver; the same
#: names on caches and wrappers are not persistence.
_DEFAULT_STORE_CALLS = ("put", "put_range", "delete", "rename")
_DEFAULT_STORE_RECEIVERS = ("backend", "backends", "store", "stores", "inner")


def _literal_prefix(node: ast.expr) -> str | None:
    """The string literal (or f-string literal head) of a crashpoint arg."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    return None


def _site_ids(graph: "CallGraph", node: ast.expr) -> list[str]:
    """The crashpoint ids an argument may name.

    A literal names itself.  ``self.NAME``/``cls.NAME`` names every class
    constant ``NAME`` in the tree: a call site in a shared base class
    declares each subclass's id, exactly as if the call were written out
    in every subclass.
    """
    literal = _literal_prefix(node)
    if literal is not None:
        return [literal]
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    ):
        return graph.class_constants(node.attr)
    return []


def declared_sites(
    graph: "CallGraph",
    scope: tuple[str, ...],
    prefixes: tuple[str, ...],
    crashpoint_calls: frozenset[str] = frozenset(_DEFAULT_CRASHPOINT_CALLS),
) -> list[tuple[str, "FunctionInfo", int]]:
    """(site id, declaring function, line) of every crashpoint under ``prefixes``."""
    declared: list[tuple[str, "FunctionInfo", int]] = []
    for info in graph.functions_in(scope).values():
        for site in info.calls:
            if site.name not in crashpoint_calls:
                continue
            call_node = None
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Call)
                    and node.lineno == site.line
                    and call_name(node) in crashpoint_calls
                    and node.args
                ):
                    call_node = node
                    break
            if call_node is None:
                continue
            for site_id in _site_ids(graph, call_node.args[0]):
                if site_id.startswith(prefixes):
                    declared.append((site_id, info, site.line))
    return declared


def _test_literals(paths: list[Path], prefixes: tuple[str, ...]) -> set[str]:
    literals: set[str] = set()
    for root in paths:
        if root.is_file():
            files = [root]
        elif root.is_dir():
            files = sorted(root.rglob("*.py"))
        else:
            continue
        for file_path in files:
            try:
                tree = ast.parse(file_path.read_text(encoding="utf-8"))
            except SyntaxError:
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if node.value.startswith(prefixes):
                        literals.add(node.value)
    return literals


def check(ctx: "AnalysisContext") -> Iterator[Finding]:
    boundary = ctx.boundary
    cfg = boundary.rule(RULE)
    prefixes = tuple(cfg.get("prefixes", _DEFAULT_PREFIXES))
    crashpoint_calls = frozenset(
        cfg.get("crashpoint_calls", _DEFAULT_CRASHPOINT_CALLS)
    )
    mutation_calls = frozenset(cfg.get("mutation_calls", _DEFAULT_MUTATION_CALLS))
    os_calls = frozenset(cfg.get("os_calls", _DEFAULT_OS_CALLS))
    os_receivers = frozenset(cfg.get("os_receivers", _DEFAULT_OS_RECEIVERS))
    store_calls = frozenset(cfg.get("store_calls", _DEFAULT_STORE_CALLS))
    store_receivers = frozenset(cfg.get("store_receivers", _DEFAULT_STORE_RECEIVERS))
    mutation_scope = tuple(cfg.get("mutation_modules", ()))
    declare_scope = tuple(cfg.get("modules", ("repro.*",)))
    exempt = frozenset(cfg.get("exempt", ()))
    graph = ctx.graph

    # -- declared -> exercised -------------------------------------------------

    test_paths_cfg = cfg.get("test_paths", ())
    base_dir = boundary.base_dir or Path(".")
    test_paths = [Path(base_dir, p) for p in test_paths_cfg]
    literals = _test_literals(test_paths, prefixes) if test_paths else None

    declared = declared_sites(graph, declare_scope, prefixes, crashpoint_calls)

    if literals is not None:
        for site_id, info, line in declared:
            if site_id in exempt:
                continue
            exercised = any(site_id.startswith(lit) for lit in literals)
            if not exercised:
                yield Finding(
                    rule=RULE,
                    path=info.module.rel_path,
                    line=line,
                    symbol=f"{info.key[0]}:{site_id}",
                    message=(
                        f"crashpoint {site_id!r} is declared but no crash test "
                        f"under {', '.join(map(str, test_paths_cfg))} ever names "
                        f"it (or a prefix of it); add it to a crash matrix or "
                        f"baseline it with a rationale"
                    ),
                )

    # -- mutating -> declared --------------------------------------------------

    for info in graph.functions_in(mutation_scope).values():
        if info.name in exempt or f"{info.key[0]}:{info.qualname}" in exempt:
            continue
        if any(site.name in crashpoint_calls for site in info.calls):
            continue
        first_mutation = None
        for site in info.calls:
            if site.name in mutation_calls:
                first_mutation = site
                break
            if site.name in os_calls and site.receiver is not None and any(
                part in os_receivers for part in segments(site.receiver)
            ):
                first_mutation = site
                break
            if site.name in store_calls and site.receiver is not None and any(
                part in store_receivers for part in segments(site.receiver)
            ):
                first_mutation = site
                break
        if first_mutation is None:
            continue
        yield Finding(
            rule=RULE,
            path=info.module.rel_path,
            line=first_mutation.line,
            symbol=f"{info.key[0]}:{info.qualname}",
            message=(
                f"persisted mutation {first_mutation.name}() has no crashpoint "
                f"in this function, so no crash matrix can schedule a crash "
                f"against it; declare one under {'/'.join(prefixes)} or "
                f"baseline with a rationale"
            ),
        )


__all__ = ["RULE", "check", "declared_sites"]
