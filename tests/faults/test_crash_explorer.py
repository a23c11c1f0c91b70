"""Crash anywhere: a seeded sample of the effect-prefix sweep.

tests/support/explorer.py enumerates every crash state — every prefix of
the victim's external effects — of each request kind of a fixed script,
in every configuration (a pipelined close's included), and checks one
atomicity oracle after recovery.
``python -m tests.support.explorer`` runs all of it, recovery sweeps
included.  Here ``SEGSHARE_FAULT_SEED`` draws the sample: a few
(configuration, kind) cases swept whole, one of them with every crash of
its recoveries, and one first start; the DiskStore sidecar window is
pinned by its own two crash states.
"""

from __future__ import annotations

import os
import random

import pytest

from tests.support.explorer import CONFIGS, KINDS, count, crash_state, explore, explore_first_start, sample

SEED = int(os.environ.get("SEGSHARE_FAULT_SEED", "0"))
_RNG = random.Random(SEED)
#: DiskStore cases cost a directory's fsyncs per crash state: the full
#: sweep runs them, the sample pins their window below.
_IN_MEMORY = [name for name, config in CONFIGS.items() if not config.disk and not config.pipelined]
_ONE_REPLICA = [name for name in _IN_MEMORY if CONFIGS[name].replicas == 1]


#: Two cases of the pipelined configuration ride along with every seed's six.
@pytest.mark.parametrize("config, kind", sample(SEED, 6, _IN_MEMORY) + sample(SEED, 2, ["pipelined"]))
def test_every_crash_state_is_atomic(config, kind):
    report = explore(config, kind)
    assert report.states == report.effects + 1 > 1


def test_every_crash_of_a_recovery_is_atomic():
    config, kind = _RNG.choice(_ONE_REPLICA), _RNG.choice(sorted(KINDS))
    report = explore(config, kind, recovery=True)
    assert report.states > report.effects + 1


def test_a_first_start_survives_a_crash_anywhere():
    """Including the counter's window before the first anchor names it,
    and a second crash in the restart's own bootstrap."""
    report = explore_first_start(_RNG.choice(["individual", "whole_fs"]), recovery=True)
    assert "counter:increment" in report.labels or report.config == "individual"


def test_a_fresh_objects_sidecar_lands_before_its_data():
    """A crash between a fresh object's key sidecar and its ranged data
    write, and one just after that write, leave no file the writer's sweep
    cannot reach (the oracle counts every file in the directories)."""
    pre, post, report = count("disk", "upload")
    pwrite = next(k for k, label in enumerate(report.labels) if label.startswith("diskstore:pwrite"))
    assert report.labels[pwrite - 2].startswith("diskstore:replace")  # the sidecar's rename
    for k in (pwrite, pwrite + 1):
        crash_state("disk", "upload", k, (pre, post))
