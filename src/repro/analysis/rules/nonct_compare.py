"""Rule ``nonct-compare``: secret comparisons must be constant time.

A ``==``/``!=`` over digests, MAC tags, or key material short-circuits
at the first differing byte, and the timing difference leaks how much of
a forgery matched — the classic MAC-forgery oracle (the GCM and PAE
implementations already use :func:`hmac.compare_digest` for exactly
this reason).  In the modules the boundary map puts in scope
(``repro.crypto.*``, ``repro.sgx.*``, and the dedup store, whose
``hName`` is an HMAC), any equality whose operands *look like* secret
material must go through ``hmac.compare_digest`` instead.

Heuristics keep the noise down: comparisons against integer literals
(length/count checks) are skipped, and only the final identifier of each
operand is matched against the secret-name pattern.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterator

from repro.analysis.engine import Finding
from repro.analysis.rules.base import call_name, iter_functions, walk_function_body

if TYPE_CHECKING:
    from repro.analysis.engine import AnalysisContext

RULE = "nonct-compare"

_DEFAULT_MODULES = ("repro.crypto.*", "repro.sgx.*")
_DEFAULT_PATTERN = (
    r"(digest|hmac|\bmac\b|_mac\b|\btag\b|_tag\b|fingerprint|signature|signer"
    r"|secret|token|h_?name|_key\b|\bkey\b|\bacc\b|_acc\b|\broot\b|_root\b"
    r"|report_data)"
)
# Identifiers that *contain* a secret-ish word but denote public metadata
# about it: DIGEST_SIZE, key_count, tag_len are length checks, not tags.
_DEFAULT_EXCLUDE = r"(size|len|length|count|version|offset|index)$"


def _identifier(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return call_name(node)
    return None


def check(ctx: "AnalysisContext") -> Iterator[Finding]:
    modules, boundary = ctx.modules, ctx.boundary
    cfg = boundary.rule(RULE)
    scope = boundary.rule_modules(RULE, _DEFAULT_MODULES)
    pattern = re.compile(cfg.get("secret_pattern", _DEFAULT_PATTERN))
    exclude = re.compile(cfg.get("exclude_pattern", _DEFAULT_EXCLUDE))

    import fnmatch

    for module in modules:
        if not any(
            module.name == p or fnmatch.fnmatchcase(module.name, p) for p in scope
        ):
            continue
        for qualname, fn in iter_functions(module.tree):
            for node in walk_function_body(fn):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                    continue
                operands = [node.left, *node.comparators]
                # Length/count checks compare against integer literals and
                # are not secret-dependent timing.
                if any(
                    isinstance(op, ast.Constant) and isinstance(op.value, (int, float))
                    for op in operands
                ):
                    continue
                # len(x) == DIGEST_SIZE compares a public length, whatever
                # the other operand is named.
                if any(
                    isinstance(op, ast.Call) and call_name(op) == "len"
                    for op in operands
                ):
                    continue
                secret = None
                for operand in operands:
                    identifier = _identifier(operand)
                    if identifier is None:
                        continue
                    lowered = identifier.lower()
                    if pattern.search(lowered) and not exclude.search(lowered):
                        secret = identifier
                        break
                if secret is None:
                    continue
                yield Finding(
                    rule=RULE,
                    path=module.rel_path,
                    line=node.lineno,
                    symbol=f"{module.name}:{qualname}",
                    message=(
                        f"non-constant-time comparison of {secret!r}; "
                        "use hmac.compare_digest"
                    ),
                )
