"""The docs cross-reference checker — and the repo docs passing it."""

from pathlib import Path

from repro.analysis.docs_check import (
    check_code_paths,
    check_docs,
    check_internal_links,
    heading_anchors,
)

REPO = Path(__file__).resolve().parents[2]


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_code_paths_resolve_modules_and_attributes(tmp_path):
    doc = _write(
        tmp_path, "a.md",
        "Good: `repro.net.fluid.FluidSolver`, `repro.net.hybrid`, and\n"
        "`repro.obs.contract.CONTRACT`.  Calls too:\n"
        "`repro.net.hybrid.format_handoff_table()`.\n",
    )
    assert check_code_paths(doc) == []


def test_rotten_code_paths_are_flagged_with_reasons(tmp_path):
    doc = _write(
        tmp_path, "a.md",
        "`repro.net.hybrid.NoSuchThing` and `repro.gone.module` here.\n",
    )
    issues = check_code_paths(doc)
    assert [i.ref for i in issues] == [
        "repro.net.hybrid.NoSuchThing", "repro.gone.module",
    ]
    assert "no attribute" in issues[0].detail
    assert all(i.kind == "code-path" for i in issues)


def test_duplicate_references_reported_once(tmp_path):
    doc = _write(tmp_path, "a.md", "`repro.bad.x` then `repro.bad.x` again\n")
    assert len(check_code_paths(doc)) == 1


def test_internal_links_and_anchors(tmp_path):
    _write(
        tmp_path, "target.md",
        "# Big Title\n\n## The `code` section\n\ntext\n",
    )
    good = _write(
        tmp_path, "good.md",
        "[t](target.md) [a](target.md#big-title) "
        "[c](target.md#the-code-section) [ext](https://example.com/x#y)\n",
    )
    assert check_internal_links(good) == []
    bad = _write(
        tmp_path, "bad.md",
        "[m](missing.md) [a](target.md#nope)\n",
    )
    kinds = [i.kind for i in check_internal_links(bad)]
    assert kinds == ["link", "anchor"]


def test_fenced_code_blocks_are_not_links(tmp_path):
    doc = _write(
        tmp_path, "a.md",
        "# T\n\n```python\npath = [h1](s1)  # not a link\n```\n",
    )
    assert check_internal_links(doc) == []


def test_heading_anchors_strip_markup():
    anchors = heading_anchors("# The `FluidSolver` hand-off!\n## A b-c\n")
    assert anchors == {"the-fluidsolver-hand-off", "a-b-c"}


def test_repo_docs_have_no_broken_references():
    """The real gate: every docs/*.md code path imports, every internal
    link and anchor resolves.  This is what CI's docs-check step runs."""
    issues = check_docs(REPO / "docs")
    assert issues == [], "\n".join(i.format() for i in issues)
