"""Benchmark harness regenerating every table and figure of the paper.

Each experiment in DESIGN.md's index has a driver in
:mod:`repro.bench.figures` returning structured rows, and a pretty
printer.  Run them from the command line::

    python -m repro.bench fig3      # Fig. 3  up/download latency
    python -m repro.bench exp2      # §VII-B  membership add/revoke
    python -m repro.bench fig4      # Fig. 4  dynamic operations
    python -m repro.bench fig5      # Fig. 5  rollback protection
    python -m repro.bench storage   # §VII-B  storage overhead
    python -m repro.bench table3    # Table III feature matrix
    python -m repro.bench tcb       # enclave LoC report
    python -m repro.bench all

Latencies are virtual-clock seconds from the calibrated Azure model.
``benchmarks/e2e`` is the repository's one wall-clock benchmark.
"""

from repro.bench.concurrency import ConcurrentDriver, DriverResult, parallel_env
from repro.bench.harness import ExperimentResult, format_rows
from repro.bench import figures

__all__ = [
    "ConcurrentDriver",
    "DriverResult",
    "ExperimentResult",
    "figures",
    "format_rows",
    "parallel_env",
]
