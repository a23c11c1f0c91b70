#!/usr/bin/env python3
"""A wall-clock-free regression gate for the request hot path.

``trace.py_calls_per_op`` — the Python-level calls one operation costs
over a round of the end-to-end benchmark (``sys.setprofile`` ``call``
events) — repeats exactly for a seed, so it can gate a CI run on a
shared machine where no timer can.  It is what catches bookkeeping that
starts to cost O(repository) again: a lock lookup that scans the table,
a guard node handled bucket by bucket, a dedup index re-encoded entry by
entry (docs/PERF.md §8).

Runs ``benchmarks/e2e/run.py --workload W --seed 1 --rounds 2 --trace 1``
for every workload, each in its own process, and exits non-zero if one
exceeds its budget.  Each budget is about 1.17x the count measured with
the change that last set it, the margin §11 and §12 used (Python 3.11).
For ``browse_hot`` that is docs/PERF.md §28's, where every cached
metadata read is one routine and a cache entry keeps its decoded object
(304.95 calls per op).  For ``edit_churn``, ``bulk_stream`` and
``cluster_fanout`` it is the count measured once the journal's per-step
crash hook left the write path (742.25, 3 201.70 and, once a first
start anchored both guards in one write, 296.55; crash states are effect
prefixes now, docs/FAULTS.md).  Budgets only fall.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# As benchmarks/e2e/run.py does: the repo's src/ and the e2e package's parent.
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from e2e.cli import child  # noqa: E402

METRIC = "trace.py_calls_per_op"
BUDGETS = {
    "browse_hot": 357.0,
    "edit_churn": 868.0,
    "bulk_stream": 3746.0,
    "cluster_fanout": 347.0,
}


def main() -> int:
    over = 0
    for workload, budget in BUDGETS.items():
        run = child(workload, seed=1, trace=1, extra=["--rounds", "2", "--trace-out", os.devnull])
        measured = run["metrics"][METRIC]["value"]
        verdict = "ok" if measured <= budget else "OVER BUDGET"
        over += measured > budget
        print(f"{workload:<15} {METRIC} {measured:>10.2f}  budget {budget:>8.0f}  {verdict}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
