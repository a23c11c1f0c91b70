"""Each seglint rule against its fixture tree: flag the bad, pass the clean.

The fixtures under ``fixtures/proj`` are a miniature enclave/host split
with one deliberately violating and one clean variant per rule; the
fixture ``boundary.toml`` classifies them.  These tests pin rule
*behaviour* — symbols flagged and symbols left alone — so analyzer
refactors cannot silently change what the repo gate enforces.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import BoundaryMap, analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def findings():
    boundary = BoundaryMap.load(FIXTURES / "boundary.toml")
    return analyze_paths([FIXTURES / "proj"], boundary)


def symbols(findings, rule):
    return {f.symbol for f in findings if f.rule == rule}


# -- plaintext-escape --------------------------------------------------------


def test_plaintext_escape_flags_direct_and_aliased_flows(findings):
    flagged = symbols(findings, "plaintext-escape")
    assert "proj.enclave.leak:Store.save" in flagged
    assert "proj.enclave.leak:Store.save_alias" in flagged


def test_plaintext_escape_passes_sanitized_flows(findings):
    flagged = symbols(findings, "plaintext-escape")
    assert "proj.enclave.leak:Store.save_ok" not in flagged
    assert "proj.enclave.leak:Store.save_digest_ok" not in flagged


def test_plaintext_escape_respects_inline_suppression(findings):
    assert "proj.enclave.leak:Store.save_waived" not in symbols(
        findings, "plaintext-escape"
    )


# -- boundary-import ---------------------------------------------------------


def test_boundary_import_flags_every_smuggling_route(findings):
    smuggled = [
        f
        for f in findings
        if f.rule == "boundary-import" and f.path.endswith("smuggler.py")
    ]
    # import, from-import of a name, via-package, relative, _enclave reach.
    assert len(smuggled) == 5
    flagged = {f.symbol for f in smuggled}
    assert "proj.host.smuggler:proj.enclave.vault" in flagged
    assert "proj.host.smuggler:proj.enclave.vault.master_key" in flagged
    assert "proj.host.smuggler:_enclave" in flagged


def test_boundary_import_passes_allowlisted_and_ecall_use(findings):
    assert not [f for f in findings if f.path.endswith("frontend.py")]


def test_boundary_import_ignores_trusted_modules(findings):
    # Trusted code imports its own internals freely; only the host is bound.
    assert not [
        f
        for f in findings
        if f.rule == "boundary-import" and "proj.enclave" in f.path
    ]


# -- nonct-compare -----------------------------------------------------------


def test_nonct_compare_flags_secret_equality(findings):
    flagged = symbols(findings, "nonct-compare")
    assert "proj.enclave.ct_bad:check_tag" in flagged
    assert "proj.enclave.ct_bad:check_digest" in flagged


def test_nonct_compare_passes_ct_and_length_checks(findings):
    flagged = symbols(findings, "nonct-compare")
    assert not {s for s in flagged if s.startswith("proj.enclave.ct_ok")}


# -- txn-discipline ----------------------------------------------------------


def test_txn_discipline_flags_exposed_untransacted_mutation(findings):
    assert "proj.enclave.journaled:Handler.startup" in symbols(
        findings, "txn-discipline"
    )


def test_txn_discipline_covers_wrapper_and_delegate_cycle(findings):
    flagged = symbols(findings, "txn-discipline")
    assert "proj.enclave.journaled:Handler.put_dir" not in flagged
    # Self-named delegate (handler method -> acs method) must not wedge
    # the exposure fixpoint into a false positive.
    assert "proj.enclave.journaled:Handler.set_permission" not in flagged


def test_txn_discipline_honors_exempt_list(findings):
    assert "proj.enclave.journaled:Handler.migrate" not in symbols(
        findings, "txn-discipline"
    )


# -- coherence-discipline ----------------------------------------------------


def test_coherence_discipline_flags_unjournaled_publishes(findings):
    flagged = symbols(findings, "coherence-discipline")
    assert "proj.enclave.coherent:Engine.publish_early" in flagged
    assert "proj.enclave.coherent:Engine.reset_unjournaled" in flagged
    # The owner funnel moves the obligation to its call sites.
    assert "proj.enclave.coherent:Engine.replay_publish" in flagged


def test_coherence_discipline_passes_commit_riding_publishes(findings):
    flagged = symbols(findings, "coherence-discipline")
    assert "proj.enclave.coherent:Engine.commit_ok" not in flagged
    assert "proj.enclave.coherent:Engine.commit_epoch_ok" not in flagged
    assert "proj.enclave.coherent:Engine._publish" not in flagged


def test_coherence_discipline_flags_unsynced_cache_serve(findings):
    flagged = symbols(findings, "coherence-discipline")
    assert "proj.enclave.coherent:Engine.cached" in flagged
    assert "proj.enclave.coherent:Engine.lookup" not in flagged


def test_coherence_discipline_honors_exempt_list(findings):
    assert "proj.enclave.coherent:Engine.takeover_reset" not in symbols(
        findings, "coherence-discipline"
    )


# -- lock-discipline ---------------------------------------------------------


def test_lock_discipline_flags_unprotected_mutations(findings):
    flagged = symbols(findings, "lock-discipline")
    assert "proj.enclave.locked:Handler.bootstrap" in flagged
    assert "proj.enclave.locked:Handler.unlocked_delete" in flagged


def test_lock_discipline_requires_a_locks_receiver(findings):
    # `with sink.write(...)` shares its bare name with the lock method but
    # the receiver is not a LockManager — the mutation inside is flagged.
    assert "proj.enclave.locked:Handler.stream_out" in symbols(
        findings, "lock-discipline"
    )


def test_lock_discipline_covers_interprocedural_lock_spans(findings):
    flagged = symbols(findings, "lock-discipline")
    # Reached only through serve's `with self.locks.for_request(...)`.
    assert "proj.enclave.locked:Handler.put_dir" not in flagged
    assert "proj.enclave.locked:Handler.set_acl" not in flagged


def test_lock_discipline_accepts_lexical_lock_spans(findings):
    flagged = symbols(findings, "lock-discipline")
    assert "proj.enclave.locked:Handler.finish_upload" not in flagged
    assert "proj.enclave.locked:Handler.rebalance" not in flagged


def test_lock_discipline_honors_exempt_list(findings):
    assert "proj.enclave.locked:Handler.exempt_tool" not in symbols(
        findings, "lock-discipline"
    )


def test_rule_selection_restricts_output():
    boundary = BoundaryMap.load(FIXTURES / "boundary.toml")
    only_ct = analyze_paths([FIXTURES / "proj"], boundary, rules=["nonct-compare"])
    assert only_ct and all(f.rule == "nonct-compare" for f in only_ct)


# -- lock-order --------------------------------------------------------------


def test_lock_order_flags_inversion_under_leaf(findings):
    inverted = [
        f
        for f in findings
        if f.rule == "lock-order"
        and f.symbol == "proj.enclave.ordered:Engine.commit_inverted"
    ]
    assert inverted and "inverting the documented lock order" in inverted[0].message


def test_lock_order_flags_interprocedural_reacquire(findings):
    flagged = symbols(findings, "lock-order")
    # The re-acquisition is reported at the acquiring function, reached
    # through commit_reentrant's held journal-commit resource.
    assert "proj.enclave.ordered:Engine.nested_commit" in flagged
    assert "proj.enclave.ordered:Engine.commit_reentrant" not in flagged


def test_lock_order_flags_cycle_between_unranked_resources(findings):
    cycles = [
        f
        for f in findings
        if f.rule == "lock-order" and "acquisition cycle" in f.message
    ]
    assert len(cycles) == 1
    assert "serial:audit" in cycles[0].message and "serial:ship" in cycles[0].message


def test_lock_order_passes_documented_order_and_factories(findings):
    flagged = symbols(findings, "lock-order")
    assert "proj.enclave.ordered:Engine.commit_ok" not in flagged


# -- epoch-typestate ---------------------------------------------------------


def test_epoch_typestate_flags_each_protocol_violation(findings):
    by_symbol = {
        f.symbol: f.message for f in findings if f.rule == "epoch-typestate"
    }
    assert "draining" in by_symbol["proj.enclave.epochs:commit_without_drain"]
    assert "before the member's commit point" in by_symbol["proj.enclave.epochs:apply_before_commit"]
    assert "uncommitted member" in by_symbol["proj.enclave.epochs:close_with_open_member"]
    assert "already open" in by_symbol["proj.enclave.epochs:reopen"]


def test_epoch_typestate_passes_loops_joins_and_handlers(findings):
    flagged = symbols(findings, "epoch-typestate")
    assert "proj.enclave.epochs:commit_ok" not in flagged
    assert "proj.enclave.epochs:rollback_ok" not in flagged
    # Must-polarity: one branch may already hold an epoch.
    assert "proj.enclave.epochs:commit_conditional_ok" not in flagged


def test_epoch_typestate_flags_ungated_routing_switch(findings):
    flagged = symbols(findings, "epoch-typestate")
    assert "proj.host.switchboard:Switchboard.swap_ungated" in flagged
    assert "proj.host.switchboard:Switchboard.swap_ok" not in flagged


# -- call-graph migration parity ---------------------------------------------

#: Byte-identical finding set of the five pre-call-graph rules on the
#: fixture tree, captured before the migration; (rule, file, line, symbol).
LEGACY_SNAPSHOT = {
    ("nonct-compare", "ct_bad.py", 5, "proj.enclave.ct_bad:check_tag"),
    ("nonct-compare", "ct_bad.py", 9, "proj.enclave.ct_bad:check_digest"),
    ("txn-discipline", "journaled.py", 11, "proj.enclave.journaled:Handler.startup"),
    ("plaintext-escape", "leak.py", 7, "proj.enclave.leak:Store.save"),
    ("plaintext-escape", "leak.py", 12, "proj.enclave.leak:Store.save_alias"),
    ("lock-discipline", "locked.py", 11, "proj.enclave.locked:Handler.bootstrap"),
    ("lock-discipline", "locked.py", 37, "proj.enclave.locked:Handler.unlocked_delete"),
    ("lock-discipline", "locked.py", 41, "proj.enclave.locked:Handler.stream_out"),
    ("boundary-import", "smuggler.py", 3, "proj.host.smuggler:proj.enclave.vault"),
    ("boundary-import", "smuggler.py", 5, "proj.host.smuggler:proj.enclave.vault.master_key"),
    ("boundary-import", "smuggler.py", 6, "proj.host.smuggler:proj.enclave.vault"),
    ("boundary-import", "smuggler.py", 7, "proj.host.smuggler:proj.enclave.vault"),
    ("boundary-import", "smuggler.py", 11, "proj.host.smuggler:_enclave"),
}


def test_callgraph_migration_preserves_legacy_finding_set():
    boundary = BoundaryMap.load(FIXTURES / "boundary.toml")
    legacy = analyze_paths(
        [FIXTURES / "proj"],
        boundary,
        rules=[
            "plaintext-escape",
            "boundary-import",
            "nonct-compare",
            "txn-discipline",
            "lock-discipline",
        ],
    )
    observed = {
        (f.rule, Path(f.path).name, f.line, f.symbol) for f in legacy
    }
    assert observed == LEGACY_SNAPSHOT
