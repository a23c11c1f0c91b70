"""seglint: repo-specific static analysis of the enclave trust boundary.

SeGShare's security argument rests on invariants that hold *by
construction* in the paper but only *by convention* in a growing Python
reproduction: plaintext never crosses the enclave boundary unencrypted,
the untrusted host reaches trusted code only through declared ECALLs,
secret comparisons run in constant time, every trusted-flow store
mutation is covered by the redo journal under the right locks, locks
are acquired in one global order, the journal epoch API is driven in
protocol order, and the crash matrices cover every persisted-mutation
site.  ``seglint`` turns each of those conventions into an AST-checked
rule — the whole-program ones over a shared interprocedural call graph
(``repro.analysis.callgraph``) — driven by the declarative trust map in
``analysis/boundary.toml``.

Run it as ``python -m repro.analysis.seglint src/``.
"""

from repro.analysis.boundary import BoundaryMap
from repro.analysis.engine import (
    AnalysisContext,
    AnalysisResult,
    Baseline,
    Finding,
    analyze_paths,
    run_analysis,
)

__all__ = [
    "AnalysisContext",
    "AnalysisResult",
    "Baseline",
    "BoundaryMap",
    "Finding",
    "analyze_paths",
    "run_analysis",
]
