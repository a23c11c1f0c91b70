"""Stand-in crash-matrix tree for the crashpoint-coverage fixture.

Not named ``test_*`` so pytest never collects it; the rule only reads
its string literals, mirroring how the real matrices sweep
``crash_at_point(nth, prefix)`` over literal site prefixes.
"""

EXERCISED = ["fix:page-write", "fix:ledger-covered"]
