"""Rule ``epoch-typestate``: the journal epoch API is driven in protocol order.

The redo journal has one commit protocol, and every transaction runs it:
an epoch is opened once (``open_epoch``), members join it
(``begin_member``), each member hands its write buffers over
(``drain``) and commits (``commit_member``, the put of its redo record)
or rolls back (``rollback_member``), its writes are applied only after
that commit point (``apply``), and the epoch closes exactly once
(``close_epoch``) with no member still open — on a serial clock right
after its single member's commit, on a parallel one after K.  Driving
the API out of order breaks redo recovery — a ``commit_member`` before
the buffers are drained seals a record that misses the member's writes,
an ``apply`` before the commit point writes through state a crash could
not finish or an abort take back, and a ``close_epoch`` with an open
member drops that member's writes while the epoch's record goes.

The rule runs a small path-sensitive abstract interpretation over each
function in scope.  The abstract state is (epoch phase, drained flag)
with phases ``unknown``/``closed``/``open``/``member``; branches fork
the state set, joins union it, loops iterate to a fixpoint, and
``try`` handlers are entered from the union of every program point in
the ``try`` body.  Violations use *must* polarity — a call is flagged
only when **every** abstract state at that point violates the protocol —
so conditional code (``if journal.epoch is None: journal.open_epoch(...)``)
never produces false positives.  ``commit_member`` additionally requires
the drained flag (set by the configured drain calls) on every reaching
member state: domination, not mere reachability.

A second, lexical check covers the cluster single-epoch-holder
discipline: in the configured switch modules, any function that performs
a routing switch (``switchless.dispatch``) must consult the epoch-open
bit (``_epoch_open``/quiesce) earlier in its body.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.engine import Finding
from repro.analysis.rules.base import call_name, segments

if TYPE_CHECKING:
    from repro.analysis.engine import AnalysisContext

RULE = "epoch-typestate"

_DEFAULT_MODULES = ("repro.store.engine",)
_DEFAULT_OPEN = ("open_epoch",)
_DEFAULT_BEGIN = ("begin_member",)
_DEFAULT_COMMIT = ("commit_member",)
_DEFAULT_ROLLBACK = ("rollback_member",)
_DEFAULT_CLOSE = ("close_epoch",)
_DEFAULT_DRAIN = ("drain",)
_DEFAULT_APPLY = ("apply", "_apply_committed")
_DEFAULT_SWITCH_MODULES = ("repro.cluster.router",)
_DEFAULT_SWITCH_CALLS = ("dispatch",)
_DEFAULT_SWITCH_RECEIVERS = ("switchless",)
_DEFAULT_GATES = ("_epoch_open", "quiesce", "_quiesce", "group_commit_quiesce")

# Abstract state: (epoch phase, write buffers drained since begin_member).
_ENTRY = frozenset({("unknown", False)})


class _Machine:
    def __init__(self, cfg: dict) -> None:
        self.kinds: dict[str, str] = {}
        for kind, default in (
            ("open", _DEFAULT_OPEN),
            ("begin", _DEFAULT_BEGIN),
            ("commit", _DEFAULT_COMMIT),
            ("rollback", _DEFAULT_ROLLBACK),
            ("close", _DEFAULT_CLOSE),
            ("drain", _DEFAULT_DRAIN),
            ("apply", _DEFAULT_APPLY),
        ):
            for name in cfg.get(f"{kind}_calls", default):
                self.kinds[name] = kind
        self.violations: list[tuple[int, str]] = []

    def transition(self, states: frozenset, kind: str, line: int) -> frozenset:
        phases = {phase for phase, _ in states}
        if kind == "drain":
            return frozenset((phase, True) for phase, _ in states)
        if kind == "apply":
            if phases <= {"member"}:
                self.violations.append(
                    (line, "writes applied before the member's commit point")
                )
            return states
        if kind == "open":
            if phases <= {"open", "member"}:
                self.violations.append(
                    (line, "open_epoch while an epoch is already open")
                )
            return frozenset({("open", False)})
        if kind == "begin":
            if phases <= {"member"}:
                self.violations.append(
                    (line, "begin_member while a member is already open")
                )
            elif phases <= {"closed", "member"}:
                self.violations.append((line, "begin_member with no open epoch"))
            return frozenset({("member", False)})
        if kind == "commit":
            if "member" not in phases:
                self.violations.append((line, "commit_member without begin_member"))
            else:
                member_states = [s for s in states if s[0] == "member"]
                if not all(drained for _, drained in member_states):
                    self.violations.append(
                        (
                            line,
                            "commit_member not dominated by draining the "
                            "write buffers (its record would miss writes)",
                        )
                    )
            return frozenset({("open", False)})
        if kind == "rollback":
            if phases <= {"open", "closed"}:
                self.violations.append((line, "rollback_member without an open member"))
            return frozenset({("open", False)})
        if kind == "close":
            if phases <= {"closed"}:
                self.violations.append((line, "close_epoch but no epoch is open"))
            elif phases <= {"member"}:
                self.violations.append(
                    (line, "close_epoch with an uncommitted member still open")
                )
            return frozenset({("closed", False)})
        return states

    # -- statement walking -----------------------------------------------------

    def _eval_calls(self, stmt: ast.AST, states: frozenset) -> frozenset:
        """Apply API calls syntactically inside one simple statement."""
        todo = [stmt]
        while todo:
            node = todo.pop(0)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Call):
                name = call_name(node)
                kind = self.kinds.get(name) if name is not None else None
                if kind is not None:
                    states = self.transition(states, kind, node.lineno)
            todo.extend(ast.iter_child_nodes(node))
        return states

    def walk_stmts(self, stmts: list[ast.stmt], states: frozenset) -> frozenset:
        for stmt in stmts:
            if not states:
                break
            states = self.walk_stmt(stmt, states)
        return states

    def walk_stmt(self, stmt: ast.stmt, states: frozenset) -> frozenset:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return states
        if isinstance(stmt, ast.If):
            states = self._eval_calls(stmt.test, states)
            return self.walk_stmts(stmt.body, states) | self.walk_stmts(
                stmt.orelse, states
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            states = self._eval_calls(stmt.iter, states)
            return self._loop(stmt.body, stmt.orelse, states)
        if isinstance(stmt, ast.While):
            states = self._eval_calls(stmt.test, states)
            return self._loop(stmt.body, stmt.orelse, states)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                states = self._eval_calls(item.context_expr, states)
            return self.walk_stmts(stmt.body, states)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._try(stmt, states)
        if isinstance(stmt, ast.Match):
            states = self._eval_calls(stmt.subject, states)
            out: frozenset = frozenset()
            for case in stmt.cases:
                out |= self.walk_stmts(case.body, states)
            return out or states
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._eval_calls(stmt, states)
            return frozenset()
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return frozenset()
        return self._eval_calls(stmt, states)

    def _loop(
        self, body: list[ast.stmt], orelse: list[ast.stmt], states: frozenset
    ) -> frozenset:
        # Union of zero or more iterations, iterated to a fixpoint over
        # the finite abstract domain.
        reach = states
        for _ in range(8):
            out = self.walk_stmts(body, reach)
            merged = reach | out
            if merged == reach:
                break
            reach = merged
        return self.walk_stmts(orelse, reach) if orelse else reach

    def _try(self, stmt: ast.Try, states: frozenset) -> frozenset:
        # Handlers may be entered from any program point of the body, so
        # they start from the union of every intermediate state set.
        handler_entry = states
        current = states
        for inner in stmt.body:
            if not current:
                break
            current = self.walk_stmt(inner, current)
            handler_entry |= current
        normal = self.walk_stmts(stmt.orelse, current) if current else current
        for handler in stmt.handlers:
            normal |= self.walk_stmts(handler.body, handler_entry)
        if stmt.finalbody:
            checked = self.walk_stmts(stmt.finalbody, normal or handler_entry)
            return checked if normal else frozenset()
        return normal


def _in_scope(name: str, patterns: tuple[str, ...]) -> bool:
    import fnmatch

    return any(name == p or fnmatch.fnmatchcase(name, p) for p in patterns)


def check(ctx: "AnalysisContext") -> Iterator[Finding]:
    boundary = ctx.boundary
    cfg = boundary.rule(RULE)
    scope = boundary.rule_modules(RULE, _DEFAULT_MODULES)
    exempt = frozenset(cfg.get("exempt", ()))
    graph = ctx.graph

    api_names = set()
    for key, default in (
        ("open_calls", _DEFAULT_OPEN),
        ("begin_calls", _DEFAULT_BEGIN),
        ("commit_calls", _DEFAULT_COMMIT),
        ("rollback_calls", _DEFAULT_ROLLBACK),
        ("close_calls", _DEFAULT_CLOSE),
    ):
        api_names.update(cfg.get(key, default))

    for info in graph.functions_in(scope).values():
        if info.name in exempt or f"{info.key[0]}:{info.qualname}" in exempt:
            continue
        if not any(site.name in api_names for site in info.calls):
            continue
        machine = _Machine(cfg)
        machine.walk_stmts(info.node.body, _ENTRY)
        for line, message in machine.violations:
            yield Finding(
                rule=RULE,
                path=info.module.rel_path,
                line=line,
                symbol=f"{info.key[0]}:{info.qualname}",
                message=f"epoch protocol violation: {message}",
            )

    # Cluster single-epoch-holder: a routing switch must be preceded by
    # an epoch-open-bit check in the same function.
    switch_scope = tuple(cfg.get("switch_modules", _DEFAULT_SWITCH_MODULES))
    switch_calls = frozenset(cfg.get("switch_calls", _DEFAULT_SWITCH_CALLS))
    switch_receivers = frozenset(cfg.get("switch_receivers", _DEFAULT_SWITCH_RECEIVERS))
    gates = frozenset(cfg.get("epoch_gates", _DEFAULT_GATES))
    for info in graph.functions_in(switch_scope).values():
        if info.name in exempt or f"{info.key[0]}:{info.qualname}" in exempt:
            continue
        for site in info.calls:
            if site.name not in switch_calls:
                continue
            if site.receiver is None or not any(
                part in switch_receivers for part in segments(site.receiver)
            ):
                continue
            gated = any(
                other.name in gates and other.line < site.line
                for other in info.calls
            )
            if not gated:
                yield Finding(
                    rule=RULE,
                    path=info.module.rel_path,
                    line=site.line,
                    symbol=f"{info.key[0]}:{info.qualname}",
                    message=(
                        "routing switch dispatches without checking the "
                        "epoch-open bit first (single-epoch-holder discipline)"
                    ),
                )


__all__ = ["RULE", "check"]
