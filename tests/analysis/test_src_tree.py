"""Repo-level gates: the real source tree satisfies every seglint invariant.

These are the tests that make seglint's guarantees durable: the tree is
clean under every rule modulo the checked-in baseline (so CI's
``python -m repro.analysis.seglint src/`` stays exit-0), the baseline
can only shrink and every entry carries a one-line rationale, no
non-constant-time secret comparison survives in the crypto/SGX layers,
and the boundary map can never drift from the enclave's measured module
list.
"""

from __future__ import annotations

import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import BoundaryMap, analyze_paths
from repro.analysis.engine import Baseline, load_modules
from repro.core.enclave_app import SeGShareEnclave

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
BOUNDARY = REPO / "analysis" / "boundary.toml"
BASELINE = REPO / "analysis" / "baseline.json"


@pytest.fixture(scope="module")
def boundary():
    return BoundaryMap.load(BOUNDARY)


def test_source_tree_is_seglint_clean(boundary):
    findings = analyze_paths([SRC], boundary)
    baseline = Baseline.load(BASELINE)
    # Finding paths are CWD-relative, so match waivers on (rule, symbol)
    # — stable regardless of where pytest runs.
    budget = Counter(
        (rule, symbol) for (rule, _, symbol), count in baseline.entries.items()
        for _ in range(count)
    )
    new = []
    for finding in findings:
        key = (finding.rule, finding.symbol)
        if budget[key] > 0:
            budget[key] -= 1
        else:
            new.append(finding)
    assert new == [], "\n".join(f.format() for f in new)
    stale = sorted(key for key, count in budget.items() if count > 0)
    assert not stale, f"stale baseline entries (delete them): {stale}"


#: The named-crash-site API the effect model replaced: a crash state is a
#: prefix of a request's external effects (docs/FAULTS.md), so no site is
#: placed by hand, and none may creep back.
_NAMED_CRASH_SITE = re.compile(r"_?crashpoint|crash_hook|crash_at_point")


def named_crash_sites(roots: list[Path]) -> list[str]:
    """``path:line name`` of each such identifier under ``roots``."""
    found = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if not _NAMED_CRASH_SITE.search(path.read_text(encoding="utf-8")):
                continue
            with path.open("rb") as handle:
                for token in tokenize.tokenize(handle.readline):
                    if token.type == tokenize.NAME and _NAMED_CRASH_SITE.fullmatch(token.string):
                        found.append(f"{path.relative_to(REPO)}:{token.start[0]} {token.string}")
    return found


def test_no_named_crash_sites():
    assert named_crash_sites([SRC, REPO / "tests"]) == []


def test_every_baseline_entry_has_a_rationale():
    baseline = Baseline.load(BASELINE)
    missing = [key for key in baseline.entries if key not in baseline.notes]
    assert not missing, f"baseline entries without a why: {missing}"


def test_no_nonct_compare_anywhere_in_crypto_or_sgx(boundary):
    findings = analyze_paths(
        [SRC / "repro" / "crypto", SRC / "repro" / "sgx"],
        boundary,
        rules=["nonct-compare"],
    )
    assert findings == [], "\n".join(f.format() for f in findings)


def test_boundary_map_covers_measured_tcb(boundary):
    missing = [
        module
        for module in SeGShareEnclave.TCB_MODULES
        if not boundary.is_trusted(module)
    ]
    assert not missing, f"TCB modules absent from boundary.toml trusted: {missing}"


def test_trusted_modules_never_classified_untrusted(boundary):
    both = [
        module
        for module in SeGShareEnclave.TCB_MODULES
        if boundary.is_untrusted(module)
    ]
    assert not both


def test_failure_responses_are_built_only_in_response_for():
    """One failure -> status table (docs/FAULTS.md): under ``repro.core``
    the denied/retryable/unavailable responses are constructed nowhere but
    ``request_handler.response_for``, so no door can drift from the others."""
    pattern = re.compile(r"Response\.(retryable|unavailable|denied)\(")
    handler = SRC / "repro" / "core" / "request_handler.py"
    (table,) = (
        node
        for node in ast.parse(handler.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "response_for"
    )
    stray = []
    for path in sorted((SRC / "repro" / "core").rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            inside = path == handler and table.lineno <= lineno <= table.end_lineno
            if pattern.search(line) and not inside:
                stray.append(f"{path.relative_to(REPO)}:{lineno}")
    assert not stray, f"failure responses built outside response_for: {stray}"


def test_metadata_reads_go_through_one_routine():
    """One cached read (docs/PERF.md §28): under ``repro.core`` and
    ``repro.store`` the metadata cache is looked up and filled nowhere but
    in ``StorageEngine.read`` and its two cache steps, ``lookup`` and
    ``fill``, so no reader can drift from the others' fill and miss rules."""
    pattern = re.compile(r"engine\.lookup\(|engine\.fill\(|\bcache\.get\(")  # not ibbe's _gdk_cache
    engine = SRC / "repro" / "store" / "engine.py"
    (store_engine,) = (
        node
        for node in ast.parse(engine.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "StorageEngine"
    )
    routine = [
        (node.lineno, node.end_lineno)
        for node in store_engine.body
        if isinstance(node, ast.FunctionDef) and node.name in ("read", "lookup", "fill")
    ]
    assert len(routine) == 3
    stray = []
    for package in ("core", "store"):
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                inside = path == engine and any(first <= lineno <= last for first, last in routine)
                if pattern.search(line) and not inside:
                    stray.append(f"{path.relative_to(REPO)}:{lineno}")
    assert not stray, f"metadata cache read outside StorageEngine.read: {stray}"


#: Trusted routines that nothing under src/, benchmarks/ or examples/ names,
#: each with the reason it stays.  Qualified name -> one-line why; an entry
#: that is reached after all, or that names no routine, fails the gate.
ALLOWED_UNREACHED: dict[str, str] = {
    "repro.core.dedup.DedupStore.refcount": (
        "test observer: tests/core/test_dedup.py and tests/faults/test_retry.py "
        "state the exact-refcount invariant through it, reading a record as the enclave does"
    ),
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name, is_method) of every function and class of
    ``module``, nested classes included, dunder methods left out."""

    def walk(body, prefix, in_class):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield f"{prefix}.{node.name}", node.name, in_class
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}.{node.name}", True)

    yield from walk(tree.body, module, False)


def _code_nodes(node: ast.AST):
    """Every node under ``node`` except docstrings and ``__all__`` lists —
    a mention in prose names nothing, and a re-export is not a caller."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
            continue
        if isinstance(child, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in child.targets
        ):
            continue
        yield child
        yield from _code_nodes(child)


def test_trusted_code_is_reached():
    """Every function, class, method and property of the trusted modules is
    named by something a request, ECALL, recovery path, benchmark or example
    runs — what only tests call is not part of the enclave.

    "Named" means, somewhere under src/, benchmarks/ or examples/: as an
    attribute or a whole quoted string (``getattr`` and
    ``handle.call("ecall")`` targets, the benchmark's span-name tuples) or,
    for a module-level function or class only, as a bare identifier — a
    local variable that shares a method's name does not reach the method.
    Imports name nothing either (an alias is neither of these nodes).

    A name-level check is a floor, not a proof: it cannot tell a
    dead ``MSetXorHash.update`` from a live ``dict.update``.  Unreached
    routines either go or are listed in ``ALLOWED_UNREACHED`` with the
    reason; stale entries fail too.
    """
    modules = load_modules([SRC, REPO / "benchmarks", REPO / "examples"])
    identifiers: set[str] = set()
    attributes: set[str] = set()
    for module in modules:
        for node in _code_nodes(module.tree):
            if isinstance(node, ast.Name):
                identifiers.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    trusted = {*SeGShareEnclave.TCB_MODULES, SeGShareEnclave.__module__}
    assert trusted <= {module.name for module in modules}
    unreached = {
        qualified
        for module in modules
        if module.name in trusted
        for qualified, name, is_method in _definitions(module.tree, module.name)
        if name not in attributes and (is_method or name not in identifiers)
    }
    unexplained = sorted(unreached - set(ALLOWED_UNREACHED))
    assert not unexplained, (
        "trusted routines nothing under src/, benchmarks/ or examples/ names "
        f"(delete them, or add to ALLOWED_UNREACHED with the reason): {unexplained}"
    )
    stale = sorted(set(ALLOWED_UNREACHED) - unreached)
    assert not stale, f"ALLOWED_UNREACHED entries that are reached or name nothing: {stale}"


#: What every shipped configuration hands the trusted stack.  Production
#: constructors take these unconditionally; a parameter or dataclass field
#: that admits ``None`` for one of them re-opens the test-only construction
#: mode (null objects, ``if clock is not None`` arms) ISSUE 23 removed.
REQUIRED_COLLABORATORS = frozenset(
    {
        "SimClock",
        "Enclave",
        "StorageEngine",
        "LockManager",
        "EpcModel",
        "TransactionStats",
        "WriteAheadJournal",
        "DedupStore",
    }
)

#: Packages whose callers really do differ, or that hold no runtime stack.
_OPTIONAL_ALLOWED_IN = ("repro.baselines", "repro.analysis")


def _union_members(annotation: ast.expr | None) -> set[str]:
    """Names joined by ``|`` / ``Optional[...]`` in an annotation; string
    annotations are parsed, ``None`` counts as the member ``"None"``."""
    if annotation is None:
        return set()
    if isinstance(annotation, ast.Constant):
        if annotation.value is None:
            return {"None"}
        if isinstance(annotation.value, str):
            try:
                return _union_members(ast.parse(annotation.value, mode="eval").body)
            except SyntaxError:
                return set()
        return set()
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _union_members(annotation.left) | _union_members(annotation.right)
    if isinstance(annotation, ast.Subscript) and ast.unparse(annotation.value).endswith("Optional"):
        return _union_members(annotation.slice) | {"None"}
    if isinstance(annotation, ast.Name):
        return {annotation.id}
    if isinstance(annotation, ast.Attribute):
        return {annotation.attr}
    return set()


def optional_collaborator_sites(src: Path) -> list[str]:
    """``path:line name`` of every function parameter and class-level
    (dataclass) field under ``src/repro`` annotated ``<collaborator> | None``.
    ``self.x: T | None = None`` declarations inside methods are not
    parameters: the not-yet-provisioned enclave legitimately has them."""
    sites = []
    for module in load_modules([src]):
        if module.name.startswith(_OPTIONAL_ALLOWED_IN):
            continue
        declared: list[tuple[int, str, ast.expr | None]] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spec = node.args
                params = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs, spec.vararg, spec.kwarg]
                declared += [(p.lineno, f"{node.name}({p.arg})", p.annotation) for p in params if p]
            elif isinstance(node, ast.ClassDef):
                declared += [
                    (field.lineno, f"{node.name}.{ast.unparse(field.target)}", field.annotation)
                    for field in node.body
                    if isinstance(field, ast.AnnAssign)
                ]
        for lineno, name, annotation in declared:
            members = _union_members(annotation)
            if "None" in members and members & REQUIRED_COLLABORATORS:
                sites.append(f"{module.rel_path}:{lineno} {name}")
    return sorted(sites)


def test_required_collaborators_are_never_optional():
    sites = optional_collaborator_sites(SRC)
    assert not sites, (
        "clock, enclave, engine, write-ahead journal, lock table, EPC model, "
        "transaction stats and object store are required collaborators (the journaled transaction "
        "is the only write path; pass a real one; tests build theirs through "
        "tests/support/platform.py) — optional again at:\n  " + "\n  ".join(sites)
    )


#: The anchor's only writers: an epoch close's landing, the first start,
#: crash recovery and the CA-authorized reset.  A guard walk runs only
#: inside an epoch and pends its root there (SECURITY.md), so no walk
#: re-anchors its own root.
ANCHOR_WRITERS = frozenset({"land", "boot", "accept_current_state", "repair"})


def anchor_write_sites(src: Path) -> list[str]:
    """``path:line function`` of every ``write_roots`` reference under
    ``src`` outside a function named in ``ANCHOR_WRITERS`` (the innermost
    enclosing one; module level counts as ``<module>``)."""
    sites = []

    def visit(node: ast.AST, function: str, rel_path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "write_roots" and function not in ANCHOR_WRITERS:
                sites.append(f"{rel_path}:{child.lineno} {function}")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner, rel_path)

    for module in load_modules([src]):
        visit(module.tree, "<module>", str(module.rel_path))
    return sorted(sites)


def test_only_the_anchor_writers_write_the_anchor():
    sites = anchor_write_sites(SRC)
    assert not sites, (
        f"FileSystemAnchor.write_roots is called only from {sorted(ANCHOR_WRITERS)}; also at:\n  "
        + "\n  ".join(sites)
    )
