"""The seglint rule registry.

Each rule module exposes ``RULE`` (its id) and
``check(ctx) -> Iterator[Finding]``, where ``ctx`` is an
:class:`repro.analysis.engine.AnalysisContext` carrying the module list,
the boundary map, and the shared interprocedural call graph
(``ctx.graph``, built lazily by the engine and shared by every rule that
asks for it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.analysis.engine import Finding
from repro.analysis.rules import (
    boundary_import,
    epoch_typestate,
    lock_discipline,
    lock_order,
    nonct_compare,
    plaintext_escape,
    txn_discipline,
)

if TYPE_CHECKING:
    from repro.analysis.engine import AnalysisContext

RuleFn = Callable[["AnalysisContext"], Iterator[Finding]]

REGISTRY: dict[str, RuleFn] = {
    plaintext_escape.RULE: plaintext_escape.check,
    boundary_import.RULE: boundary_import.check,
    nonct_compare.RULE: nonct_compare.check,
    txn_discipline.RULE: txn_discipline.check,
    txn_discipline.COHERENCE_RULE: txn_discipline.check_coherence,
    lock_discipline.RULE: lock_discipline.check,
    lock_order.RULE: lock_order.check,
    epoch_typestate.RULE: epoch_typestate.check,
}

__all__ = ["REGISTRY", "RuleFn"]
