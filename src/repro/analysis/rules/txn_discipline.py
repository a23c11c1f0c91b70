"""Rule ``txn-discipline``: trusted-flow mutations run inside a transaction.

One SeGShare request mutates many untrusted keys; a crash between two of
them leaves storage inconsistent with the rollback-guard anchors, which
is indistinguishable from a rollback attack (``repro.core.journal``
docstring, PR 1).  Since the storage-engine refactor all of that
choreography — journal batch, guard-batch accumulation, deferred ocall
flush, cache write-through on commit / discard on abort — lives behind
one span: ``StorageEngine.transaction()``.  The discipline is therefore:
every file-manager mutation reachable from a request entry point happens
inside a ``manager.transaction(...)`` span.  (This rule subsumes the old
``cache-discard`` rule: cache coherence is now enforced by construction
inside the engine facade, so only the transaction bracketing is left to
lint.)

The check is interprocedural over the modules the boundary map puts in
scope (the request handler, access control, and rotation replay), built
on the shared call graph (:mod:`repro.analysis.callgraph`): a call site
is *protected* when one of its enclosing ``with`` spans is a
``*.transaction(...)`` call, and exposure is the graph's shared entry-
point fixpoint.  Call edges resolve by bare method name — deliberately
coarse, so recursion and delegate cycles (``RequestHandler.set_permission``
calling ``AccessControl.set_permission``) stay unexposed unless
something genuinely exposed reaches them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.engine import Finding
from repro.analysis.rules.base import segments

if TYPE_CHECKING:
    from repro.analysis.engine import AnalysisContext

RULE = "txn-discipline"

_DEFAULT_MODULES = (
    "repro.core.request_handler",
    "repro.core.access_control",
    "repro.core.rotation",
)
_DEFAULT_MUTATORS = (
    "write_dir",
    "write_acl",
    "write_content",
    "delete_content",
    "delete_acl",
    "write_member_list",
    "write_group_list",
    "write_quota",
)


def check(ctx: "AnalysisContext") -> Iterator[Finding]:
    from repro.analysis.callgraph import CallSite, exposure

    boundary = ctx.boundary
    cfg = boundary.rule(RULE)
    scope = boundary.rule_modules(RULE, _DEFAULT_MODULES)
    mutators = frozenset(cfg.get("mutators", _DEFAULT_MUTATORS))
    wrappers = frozenset(cfg.get("txn_wrappers", ()))
    exempt = frozenset(cfg.get("exempt", ()))

    def protected(site: CallSite) -> bool:
        return any(span.method == "transaction" for span in site.spans)

    funcs = ctx.graph.functions_in(scope)
    exposed = exposure(funcs, protected, wrappers)

    for info in funcs.values():
        if info.key not in exposed:
            continue
        outside = [
            site
            for site in info.calls
            if site.name in mutators and not protected(site)
        ]
        if not outside:
            continue
        if info.name in exempt or f"{info.key[0]}:{info.qualname}" in exempt:
            continue
        site = outside[0]
        yield Finding(
            rule=RULE,
            path=info.module.rel_path,
            line=site.line,
            symbol=f"{info.key[0]}:{info.qualname}",
            message=(
                f"{site.name}() runs outside any storage transaction and no "
                f"caller establishes one; wrap the mutation in "
                f"manager.transaction(...) or baseline it with a justification"
            ),
        )


# -- coherence-discipline ------------------------------------------------------
#
# The cross-replica invalidation protocol (repro.core.coherence) adds two
# obligations the transaction span alone does not express:
#
# * **publish-at-commit** — an entry on the shared coherence log tells
#   peers to drop cached values because durable state changed.  A publish
#   that does not strictly follow the journal's commit record could
#   describe a batch that subsequently rolls back (peers discard for
#   nothing — a correctness-preserving perf bug) or, worse, race a crash
#   so the log and the store disagree about what committed.  The engine
#   funnels every publish through one owner helper; this check verifies
#   each call site of that helper (and any direct publish on a coherence
#   receiver) is preceded, in the same function, by a journal
#   commit_member/close_epoch call (boundary.toml; the default list keeps
#   a bare ``commit`` for projects without epochs).
# * **sync-before-serve** — the cache facade's serve paths must apply
#   peer epochs before reading, or a replica serves plaintext a peer
#   already invalidated.  The check is line-order within the configured
#   serve functions: a cache get/contains with no earlier coherence
#   sync() is flagged.
#
# Both checks are intentionally intraprocedural: the protocol is a local
# choreography (commit, then publish; sync, then read), and the owner
# funnel plus the txn-discipline exposure rule already cover the
# interprocedural half.  The recovery-path reset is exempted by name in
# boundary.toml with its rationale.

COHERENCE_RULE = "coherence-discipline"

_DEFAULT_COHERENCE_MODULES = ("repro.store.engine", "repro.core.enclave_app")
_DEFAULT_PUBLISH_CALLS = ("publish", "publish_reset")
_DEFAULT_PUBLISH_RECEIVERS = ("coherence",)
_DEFAULT_PUBLISH_OWNERS = ("_publish_coherence",)
_DEFAULT_COMMIT_CALLS = ("commit", "commit_member", "close_epoch")
_DEFAULT_COMMIT_RECEIVERS = ("journal",)
_DEFAULT_SERVE_FUNCTIONS = ("lookup", "cached")
_DEFAULT_CACHE_CALLS = ("get", "contains")
_DEFAULT_CACHE_RECEIVERS = ("cache",)
_DEFAULT_SYNC_CALLS = ("sync",)


def _receiver_matches(receiver: str | None, names: frozenset[str]) -> bool:
    if receiver is None:
        return False
    return any(part in names for part in segments(receiver))


def check_coherence(ctx: "AnalysisContext") -> Iterator[Finding]:
    boundary = ctx.boundary
    cfg = boundary.rule(COHERENCE_RULE)
    scope = boundary.rule_modules(COHERENCE_RULE, _DEFAULT_COHERENCE_MODULES)
    publish_calls = frozenset(cfg.get("publish_calls", _DEFAULT_PUBLISH_CALLS))
    publish_receivers = frozenset(
        cfg.get("publish_receivers", _DEFAULT_PUBLISH_RECEIVERS)
    )
    owners = frozenset(cfg.get("publish_owners", _DEFAULT_PUBLISH_OWNERS))
    commit_calls = frozenset(cfg.get("commit_calls", _DEFAULT_COMMIT_CALLS))
    commit_receivers = frozenset(
        cfg.get("commit_receivers", _DEFAULT_COMMIT_RECEIVERS)
    )
    serve_functions = frozenset(
        cfg.get("serve_functions", _DEFAULT_SERVE_FUNCTIONS)
    )
    cache_calls = frozenset(cfg.get("cache_calls", _DEFAULT_CACHE_CALLS))
    cache_receivers = frozenset(
        cfg.get("cache_receivers", _DEFAULT_CACHE_RECEIVERS)
    )
    sync_calls = frozenset(cfg.get("sync_calls", _DEFAULT_SYNC_CALLS))
    exempt = frozenset(cfg.get("exempt", ()))

    for info in ctx.graph.functions_in(scope).values():
        if info.name in exempt or f"{info.key[0]}:{info.qualname}" in exempt:
            continue

        # -- publish-at-commit -----------------------------------------------
        if info.name not in owners:
            # Inside an owner the publish is the implementation; the
            # obligation moves to the owner's call sites below.
            commit_lines = [
                site.line
                for site in info.calls
                if site.name in commit_calls
                and _receiver_matches(site.receiver, commit_receivers)
            ]
            for site in info.calls:
                direct = site.name in publish_calls and _receiver_matches(
                    site.receiver, publish_receivers
                )
                if not direct and site.name not in owners:
                    continue
                if any(line < site.line for line in commit_lines):
                    continue
                yield Finding(
                    rule=COHERENCE_RULE,
                    path=info.module.rel_path,
                    line=site.line,
                    symbol=f"{info.key[0]}:{info.qualname}",
                    message=(
                        f"{site.name}() publishes to the coherence log with no "
                        f"preceding journal commit in this function; "
                        f"invalidation entries must describe only durable "
                        f"state — publish after "
                        f"{'/'.join(sorted(commit_calls))}, or exempt the "
                        f"function with a justification"
                    ),
                )

        # -- sync-before-serve -------------------------------------------------
        if info.name not in serve_functions:
            continue
        sync_lines = [
            site.line
            for site in info.calls
            if site.name in sync_calls
            and _receiver_matches(site.receiver, publish_receivers)
        ]
        for site in info.calls:
            if site.name not in cache_calls or not _receiver_matches(
                site.receiver, cache_receivers
            ):
                continue
            if any(line < site.line for line in sync_lines):
                continue
            yield Finding(
                rule=COHERENCE_RULE,
                path=info.module.rel_path,
                line=site.line,
                symbol=f"{info.key[0]}:{info.qualname}",
                message=(
                    f"{site.name}() serves from the cache before any "
                    f"coherence sync() in this serve path; a replica must "
                    f"apply peer epochs before reading or it serves values "
                    f"a peer already invalidated"
                ),
            )
