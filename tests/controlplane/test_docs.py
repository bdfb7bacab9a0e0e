"""docs/controlplane.md stays in sync with the contract, both ways."""

import pathlib

from repro.core.ownership import CONTROLPLANE_CONTRACT, format_controlplane_table

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "controlplane.md"


def _embedded_table(marker: str) -> str:
    """The marker-delimited table embedded in docs/controlplane.md."""
    begin, end = f"<!-- {marker}:begin -->", f"<!-- {marker}:end -->"
    text = DOC.read_text(encoding="utf-8")
    assert begin in text and end in text, f"{begin} ... {end} markers missing"
    return text.split(begin, 1)[1].split(end, 1)[0].strip()


def test_contract_table_matches_formatter_exactly():
    assert _embedded_table("controlplane-contract") == (
        format_controlplane_table().strip()
    ), (
        "docs/controlplane.md contract table is stale — regenerate with "
        "`python -c \"from repro.core.ownership import "
        "format_controlplane_table; print(format_controlplane_table())\"` "
        "and paste between the markers"
    )


def test_every_contract_rule_has_a_doc_row_and_vice_versa():
    rows = [
        line for line in _embedded_table("controlplane-contract").splitlines()
        if line.startswith("| ") and not line.startswith("| ---")
        and not line.startswith("| aspect")
    ]
    assert len(rows) == len(CONTROLPLANE_CONTRACT)
    aspects = {row.aspect for row in CONTROLPLANE_CONTRACT}
    for aspect in aspects:
        assert any(f"| {aspect} |" in row for row in rows), aspect
