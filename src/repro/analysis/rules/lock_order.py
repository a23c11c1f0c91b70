"""Rule ``lock-order``: all lock acquisitions respect one global order.

The concurrency model (PR 4/5/7) layers three families of locks: subtree
path locks from :class:`~repro.core.locks.LockManager` plans, named
serial resources on the virtual clock (``clock.exclusive`` — the
journal-commit rendezvous, guard-shard and anchor serialization, ROTE
counter increments), and leaf Python mutexes guarding in-enclave data
structures (cache, disk store).  Deadlock freedom rests on everyone
acquiring them in the documented order — path locks first, serial
resources next, leaf locks innermost, never the reverse
(``repro.core.locks`` docstring, docs/PERF.md §5).

The rule reconstructs the global lock-acquisition graph from the shared
call graph: every ``with`` item is classified into a lock class (via
method/receiver shape, the literal serial-resource name, or — for
helpers like ``StorageEngine._commit_point`` and
``RollbackGuard._node_lock`` that *return* an acquisition — factory
resolution through the helper's return expressions), and the set of
classes held at each acquisition is propagated interprocedurally along
resolved call edges to a fixpoint.  Two findings result: an acquisition
whose class ranks at or below a held class (order inversion; same-class
re-acquisition is allowed only for classes declared ``reentrant``), and
any cycle among classes the configured order does not rank (a static
deadlock between unordered resources).
"""

from __future__ import annotations

import fnmatch
from collections import defaultdict
from typing import TYPE_CHECKING, Iterator

from repro.analysis.engine import Finding
from repro.analysis.rules.base import segments

if TYPE_CHECKING:
    from repro.analysis.callgraph import CallGraph, FunctionInfo, Span
    from repro.analysis.engine import AnalysisContext

RULE = "lock-order"

_DEFAULT_MODULES = (
    "repro.core.locks",
    "repro.core.request_handler",
    "repro.core.access_control",
    "repro.core.enclave_app",
    "repro.core.file_manager",
    "repro.core.rollback",
    "repro.core.journal",
    "repro.core.cache",
    "repro.store.engine",
    "repro.store.sharded",
    "repro.storage.backends",
    "repro.sgx.protected_fs",
    "repro.sgx.counters",
    "repro.cluster.router",
)
#: Outermost-first global order; an acquisition must rank strictly below
#: everything already held (unless its class is reentrant and equal).
_DEFAULT_ORDER = (
    "path",
    "journal-commit",
    "guard-node",
    "anchor",
    "counter",
    "leaf",
)
_DEFAULT_REENTRANT = ("path", "leaf")
_DEFAULT_PATH_METHODS = ("for_request", "for_upload", "acquire", "read", "write")
_DEFAULT_PATH_RECEIVERS = ("locks", "lock_manager")
_DEFAULT_SERIAL_METHODS = ("serial", "exclusive")
_DEFAULT_SHARD_METHODS = ("shard",)
_DEFAULT_SHARD_CLASS = "guard-node"
_DEFAULT_LEAF_ATTRS = ("_lock", "_mutex")
#: Literal serial-resource name (fnmatch pattern) -> lock class.
_DEFAULT_SERIAL_NAMES = {
    "journal-commit": "journal-commit",
    "rb-node*": "guard-node",
    "rbg-node*": "guard-node",
    "rb-anchor": "anchor",
    "counter:*": "counter",
}


class _Config:
    def __init__(self, cfg: dict) -> None:
        self.order: tuple[str, ...] = tuple(cfg.get("order", _DEFAULT_ORDER))
        self.rank = {cls: i for i, cls in enumerate(self.order)}
        self.reentrant = frozenset(cfg.get("reentrant", _DEFAULT_REENTRANT))
        self.path_methods = frozenset(cfg.get("path_methods", _DEFAULT_PATH_METHODS))
        self.path_receivers = frozenset(
            cfg.get("path_receivers", _DEFAULT_PATH_RECEIVERS)
        )
        self.serial_methods = frozenset(
            cfg.get("serial_methods", _DEFAULT_SERIAL_METHODS)
        )
        self.shard_methods = frozenset(cfg.get("shard_methods", _DEFAULT_SHARD_METHODS))
        self.shard_class: str = cfg.get("shard_class", _DEFAULT_SHARD_CLASS)
        self.leaf_attrs = frozenset(cfg.get("leaf_attrs", _DEFAULT_LEAF_ATTRS))
        self.serial_names: dict[str, str] = dict(
            cfg.get("serial_names", _DEFAULT_SERIAL_NAMES)
        )
        self.exempt = frozenset(cfg.get("exempt", ()))

    def classify_serial(self, arg: str | None) -> str | None:
        if arg is None:
            return None
        for pattern, cls in self.serial_names.items():
            if arg == pattern or fnmatch.fnmatchcase(arg, pattern):
                return cls
        # Unmapped serial resource: its own (unranked) class, so cycles
        # between ad-hoc resources are still caught.
        return f"serial:{arg}"


def _classify_direct(span: "Span", cfg: _Config) -> str | None:
    """Lock class of one ``with`` item, without factory resolution."""
    if span.method is None:
        # Bare expression: ``with self._lock:`` — a leaf mutex.
        if span.receiver is not None and span.receiver.split(".")[-1] in cfg.leaf_attrs:
            return "leaf"
        return None
    recv_segments = segments(span.receiver) if span.receiver is not None else []
    if span.method in cfg.path_methods and any(
        part in cfg.path_receivers for part in recv_segments
    ):
        return "path"
    if span.method in cfg.shard_methods and any(
        part in cfg.path_receivers for part in recv_segments
    ):
        return cfg.shard_class
    if span.method in cfg.serial_methods:
        return cfg.classify_serial(span.arg)
    return None


def _factory_classes(
    graph: "CallGraph", funcs: dict, cfg: _Config
) -> dict[str, list[str]]:
    """Bare function name -> lock classes its return expressions acquire.

    Resolves helpers like ``_node_lock``/``_commit_point`` that return
    a classified acquisition; helpers with only unclassified returns
    (``nullcontext()`` fallbacks) contribute nothing for those returns.
    """
    classes: dict[str, list[str]] = defaultdict(list)
    for info in funcs.values():
        for ret in info.returns:
            cls = _classify_direct(ret, cfg)
            if cls is not None and cls not in classes[info.name]:
                classes[info.name].append(cls)
    return classes


def check(ctx: "AnalysisContext") -> Iterator[Finding]:
    boundary = ctx.boundary
    cfg = _Config(boundary.rule(RULE))
    scope = boundary.rule_modules(RULE, _DEFAULT_MODULES)
    graph = ctx.graph
    funcs = graph.functions_in(scope)
    factories = _factory_classes(graph, funcs, cfg)

    def classify(span: "Span") -> str | None:
        cls = _classify_direct(span, cfg)
        if cls is not None:
            return cls
        if span.method is not None and span.method in factories:
            found = factories[span.method]
            if len(found) == 1:
                return found[0]
        return None

    # Interprocedural held-set propagation: the classes held on entry to
    # each function, seeded empty, flowed along resolved call edges
    # together with the classes of the spans enclosing each call site.
    held_entry: dict = {key: frozenset() for key in funcs}
    changed = True
    while changed:
        changed = False
        for info in funcs.values():
            base = held_entry[info.key]
            for site in info.calls:
                span_classes = frozenset(
                    cls for cls in (classify(s) for s in site.spans) if cls is not None
                )
                at_site = base | span_classes
                if not at_site:
                    continue
                for callee in graph.resolve(info, site):
                    if callee not in held_entry:
                        continue
                    merged = held_entry[callee] | at_site
                    if merged != held_entry[callee]:
                        held_entry[callee] = merged
                        changed = True

    # Class-level acquisition edges (held -> acquired) and violations.
    edges: dict[tuple[str, str], tuple["FunctionInfo", int]] = {}
    for info in funcs.values():
        if info.name in cfg.exempt or f"{info.key[0]}:{info.qualname}" in cfg.exempt:
            continue
        for acq in info.acquisitions:
            acquired = classify(acq.span)
            if acquired is None:
                continue
            held = held_entry[info.key] | frozenset(
                cls for cls in (classify(s) for s in acq.held) if cls is not None
            )
            for holding in held:
                if (holding, acquired) not in edges:
                    edges[(holding, acquired)] = (info, acq.span.line)
            if acquired in held and acquired not in cfg.reentrant:
                yield Finding(
                    rule=RULE,
                    path=info.module.rel_path,
                    line=acq.span.line,
                    symbol=f"{info.key[0]}:{info.qualname}",
                    message=(
                        f"re-acquires non-reentrant lock class {acquired!r} "
                        f"while already holding it (self-deadlock)"
                    ),
                )
            rank_acq = cfg.rank.get(acquired)
            inverted = sorted(
                holding
                for holding in held
                if holding != acquired
                and cfg.rank.get(holding) is not None
                and rank_acq is not None
                and rank_acq < cfg.rank[holding]
            )
            if inverted:
                yield Finding(
                    rule=RULE,
                    path=info.module.rel_path,
                    line=acq.span.line,
                    symbol=f"{info.key[0]}:{info.qualname}",
                    message=(
                        f"acquires {acquired!r} while holding "
                        f"{', '.join(repr(h) for h in inverted)}, inverting the "
                        f"documented lock order ({' -> '.join(cfg.order)})"
                    ),
                )

    # Cycle detection over the class-level graph catches deadlocks among
    # classes the configured order does not rank (ad-hoc serial
    # resources); ranked inversions above already imply their cycles.
    adjacency: dict[str, set[str]] = defaultdict(set)
    for holding, acquired in edges:
        if holding != acquired:
            adjacency[holding].add(acquired)
    ranked_pairs = {
        pair
        for pair in edges
        if pair[0] in cfg.rank and pair[1] in cfg.rank
    }
    state: dict[str, int] = {}
    stack: list[str] = []

    def cycles_from(node: str) -> Iterator[list[str]]:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(adjacency.get(node, ())):
            if state.get(nxt, 0) == 1:
                yield stack[stack.index(nxt) :] + [nxt]
            elif state.get(nxt, 0) == 0:
                yield from cycles_from(nxt)
        stack.pop()
        state[node] = 2

    seen_cycles: set[frozenset[str]] = set()
    for start in sorted(adjacency):
        if state.get(start, 0) == 0:
            for cycle in cycles_from(start):
                pairs = set(zip(cycle, cycle[1:]))
                if pairs <= ranked_pairs:
                    continue  # already reported as a rank inversion
                ident = frozenset(cycle)
                if ident in seen_cycles:
                    continue
                seen_cycles.add(ident)
                edge = next(pair for pair in pairs if pair not in ranked_pairs)
                info, line = edges[edge]
                yield Finding(
                    rule=RULE,
                    path=info.module.rel_path,
                    line=line,
                    symbol=f"{info.key[0]}:{info.qualname}",
                    message=(
                        f"lock classes form an acquisition cycle "
                        f"{' -> '.join(cycle)} (static deadlock); break the "
                        f"cycle or rank these resources in the lock order"
                    ),
                )
