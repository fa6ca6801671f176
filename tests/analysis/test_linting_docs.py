"""docs/LINTING.md names the same rules as the code.

The verdict table has one row per rule the linter ever had; the rows
marked **keep**, the rules in ``default_rules()`` and the ids printed
by ``repro lint --list-rules`` must be one set, and the catalogue
documents exactly the kept rules.
"""

import pathlib
import re

from repro.analysis import default_rules
from repro.cli import main

LINTING = pathlib.Path(__file__).resolve().parents[2] / "docs" / "LINTING.md"
RULE_ID = re.compile(r"[A-Z]{3,4}\d{3}")


def verdict_rows():
    """``{rule id: verdict cell}`` from the verdict table."""
    rows = {}
    for line in LINTING.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and RULE_ID.fullmatch(cells[0]):
            assert cells[0] not in rows, f"two rows for {cells[0]}"
            rows[cells[0]] = cells[-1]
    return rows


def catalogue_ids():
    """Rule ids with a ``- **ID `name`**`` catalogue entry."""
    text = LINTING.read_text(encoding="utf-8")
    return set(re.findall(r"^- \*\*([A-Z]{3,4}\d{3}) `", text, re.MULTILINE))


def test_verdict_table_covers_every_rule_with_one_verdict():
    rows = verdict_rows()
    assert len(rows) == 16
    for rule_id, verdict in rows.items():
        assert verdict.startswith(("**keep**", "**deleted**")), rule_id


def test_kept_rows_default_rules_and_list_rules_agree(capsys):
    kept = {rule_id for rule_id, verdict in verdict_rows().items()
            if verdict.startswith("**keep**")}
    registered = {rule.rule_id for rule in default_rules()}
    assert main(["lint", "--list-rules"]) == 0
    listed = {line.split()[0]
              for line in capsys.readouterr().out.splitlines() if line}
    assert kept == registered == listed
    assert catalogue_ids() == kept
