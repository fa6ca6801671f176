"""The linter runs clean over its own repository.

This is the acceptance gate the CI ``lint`` job enforces: every
finding in ``src/`` is either fixed or committed to the baseline with
a reason.  If you add code that trips a rule, fix it — or, for a
justified exception, run ``python -m repro lint --update-baseline``
and annotate the new entry (see ``docs/LINTING.md``).
"""

import json
import pathlib

from repro.analysis import default_rules
from repro.analysis.baseline import load_baseline, split_by_baseline
from repro.analysis.driver import analyze_paths

ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE = ROOT / "lint-baseline.json"


def test_src_tree_has_no_unbaselined_findings():
    findings = analyze_paths([ROOT / "src" / "repro"], default_rules(),
                             root=ROOT)
    new, _suppressed = split_by_baseline(findings,
                                         load_baseline(BASELINE))
    details = "\n".join(
        f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in new)
    assert new == [], f"un-baselined lint findings:\n{details}"


def test_committed_baseline_is_small_and_justified():
    """The baseline is accepted debt: every entry carries a reason."""
    data = json.loads(BASELINE.read_text(encoding="utf-8"))
    entries = data["findings"]
    assert len(entries) <= 10, "baseline should shrink, not grow"
    for entry in entries:
        assert entry.get("reason"), (
            f"baseline entry for {entry['path']} lacks a justification")


def test_baseline_entries_are_still_live():
    """Stale fingerprints (already-fixed lines) must be pruned."""
    findings = analyze_paths([ROOT / "src" / "repro"], default_rules(),
                             root=ROOT)
    live = {f.fingerprint for f in findings}
    recorded = load_baseline(BASELINE)
    assert recorded <= live, (
        "baseline contains fingerprints that no longer match any "
        "finding; regenerate with --update-baseline")


def test_stale_baseline_helper_agrees():
    """`--check-baseline` sees the same staleness the test above does."""
    from repro.analysis.baseline import stale_baseline_entries

    findings = analyze_paths([ROOT / "src" / "repro"], default_rules(),
                             root=ROOT)
    assert stale_baseline_entries(BASELINE, findings) == []


def test_generated_kernels_audit_clean():
    """`repro lint --kernels` must pass on every registered kernel."""
    from repro.analysis.rules_kernels import audit_registered_kernels

    assert audit_registered_kernels() == []
