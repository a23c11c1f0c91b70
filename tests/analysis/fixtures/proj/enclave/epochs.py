"""epoch-typestate fixture: the journal epoch API driven well and badly.

The clean drivers exercise the loop fixpoint and the must-polarity join
(``commit_conditional_ok`` opens the epoch only on one branch, which is
fine because the other branch *may* already hold one); each bad driver
violates exactly one protocol transition.
"""


def commit_ok(journal, buffers, batches):
    journal.open_epoch()
    for batch in batches:
        journal.begin_member()
        writes = buffers.drain()
        record = journal.commit_member(writes)
        journal.apply(record)
    journal.close_epoch()


def rollback_ok(journal, buffers):
    journal.open_epoch()
    journal.begin_member()
    try:
        writes = buffers.drain()
        journal.commit_member(writes)
    except OSError:
        journal.rollback_member()
    journal.close_epoch()


def commit_conditional_ok(journal, buffers, group):
    if not group.open:
        journal.open_epoch()
    journal.begin_member()
    writes = buffers.drain()
    journal.commit_member(writes)
    journal.close_epoch()


def commit_without_drain(journal, buffers):
    journal.open_epoch()
    journal.begin_member()
    journal.commit_member(())
    journal.close_epoch()


def apply_before_commit(journal, buffers):
    journal.open_epoch()
    journal.begin_member()
    writes = buffers.drain()
    journal.apply(writes)
    journal.commit_member(writes)
    journal.close_epoch()


def close_with_open_member(journal, buffers):
    journal.open_epoch()
    journal.begin_member()
    buffers.drain()
    journal.close_epoch()


def reopen(journal):
    journal.open_epoch()
    journal.open_epoch()
    journal.close_epoch()
