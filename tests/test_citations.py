"""Cross-references in code and docs point at something that exists.

A "ROADMAP item N" citation must name an item ROADMAP.md still numbers
(open items keep their numbers across re-anchors; a done item's number
is retired), and a "docs/X.md §N" citation must name a numbered heading
of that document.  Read: src/, tests/, docs/ and the top-level docs.
ROADMAP.md and CHANGES.md are the history itself, and ``benchmarks/e2e/``
changes only with the benchmark, so none of the three is read.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_TOP_LEVEL_DOCS = ("README.md", "DESIGN.md", "SECURITY.md", "EXPERIMENTS.md")
_ITEM = re.compile(r"ROADMAP\s+items?\s+(\d+(?:(?:\s*,\s*|\s+and\s+|\s+or\s+)\d+)*)")
_SECTION = re.compile(r"docs/(\w+\.md)((?:\s*(?:,|/|and)?\s*§\s*\d+(?:\.\d+)*)+)")
_HEADING = re.compile(r"^#+\s+(\d+(?:\.\d+)*)[.\s]", re.M)


def cited_files() -> list[Path]:
    files = [REPO / name for name in _TOP_LEVEL_DOCS]
    for tree, suffixes in (("src", {".py"}), ("tests", {".py"}), ("docs", {".md"})):
        files += [path for path in sorted((REPO / tree).rglob("*")) if path.suffix in suffixes]
    return files


def citations(pattern: re.Pattern) -> list[tuple[str, re.Match]]:
    """(``path:line``, match) of every citation under the cited trees."""
    found = []
    for path in cited_files():
        text = path.read_text(encoding="utf-8")
        for match in pattern.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            found.append((f"{path.relative_to(REPO)}:{line}", match))
    return found


def test_roadmap_citations_name_open_items():
    numbered = {int(n) for n in re.findall(r"^(\d+)\. \*\*", (REPO / "ROADMAP.md").read_text(), re.M)}
    assert numbered, "ROADMAP.md numbers no items"
    stale = [
        f"{where} item {n}"
        for where, match in citations(_ITEM)
        for n in map(int, re.findall(r"\d+", match.group(1)))
        if n not in numbered
    ]
    assert not stale, "citations of items ROADMAP.md does not number:\n  " + "\n  ".join(stale)


def test_doc_section_citations_name_headings():
    headings = {path.name: set(_HEADING.findall(path.read_text())) for path in (REPO / "docs").glob("*.md")}
    dangling = [
        f"{where} docs/{match.group(1)} §{section}"
        for where, match in citations(_SECTION)
        for section in re.findall(r"§\s*(\d+(?:\.\d+)*)", match.group(2))
        if section not in headings.get(match.group(1), set())
    ]
    assert not dangling, "citations of sections that do not exist:\n  " + "\n  ".join(dangling)
