"""VEC002: cohort-mirror constant parity."""

import pathlib
import textwrap

from repro.analysis import MirrorConstantParityRule, analyze_paths

from .conftest import rule_ids


def test_real_source_tree_is_parity_clean():
    root = pathlib.Path(__file__).resolve().parents[2]
    findings = analyze_paths(
        [root / "src" / "repro" / "power",
         root / "src" / "repro" / "core",
         root / "src" / "repro" / "net"],
        [MirrorConstantParityRule()],
        root=root,
    )
    assert findings == []


def test_cohort_declares_parity_mirrors():
    from repro.net.cohort import PARITY_MIRRORS

    assert "_CohortMachine._ocv_and_resistance" in PARITY_MIRRORS
    assert "_CohortMachine._sync" in PARITY_MIRRORS
    assert "_CohortMachine._solve_update" in PARITY_MIRRORS


# -- VEC002 marker liveness --------------------------------------------------


def write_pair(tmp_path, mirror_code):
    pkg = tmp_path / "repro"
    pkg.mkdir(exist_ok=True)
    (pkg / "scalar.py").write_text(textwrap.dedent("""
        class Cell:
            def ocv(self, q):
                return 1.2 + 0.1 * q
    """))
    (pkg / "mirror.py").write_text(textwrap.dedent(mirror_code))
    return analyze_paths([tmp_path], [MirrorConstantParityRule()],
                         root=tmp_path)


def test_mirror_in_sync_is_silent(tmp_path):
    assert write_pair(tmp_path, """
        PARITY_MIRRORS = {"Machine.ocv": ("repro.scalar:Cell.ocv",)}

        class Machine:
            def ocv(self, q):
                return 1.2 + 0.1 * q
    """) == []


def test_missing_mirror_function_is_flagged(tmp_path):
    findings = write_pair(tmp_path, """
        PARITY_MIRRORS = {"Machine.gone": ("repro.scalar:Cell.ocv",)}

        class Machine:
            pass
    """)
    assert rule_ids(findings) == ["VEC002"]
    assert "does not exist" in findings[0].message


def test_unresolvable_reference_is_flagged(tmp_path):
    findings = write_pair(tmp_path, """
        PARITY_MIRRORS = {"Machine.ocv": ("repro.scalar:Cell.vanished",)}

        class Machine:
            def ocv(self, q):
                return 1.2 + 0.1 * q
    """)
    assert rule_ids(findings) == ["VEC002"]
    assert "does not resolve" in findings[0].message


def test_absent_reference_module_stays_silent(tmp_path):
    # Single-file lint runs must not fire on unreachable references.
    findings = write_pair(tmp_path, """
        PARITY_MIRRORS = {"Machine.ocv": ("repro.elsewhere:Cell.ocv",)}

        class Machine:
            def ocv(self, q):
                return 9.9 * q
    """)
    assert findings == []


def test_cohort_single_file_lint_stays_silent():
    root = pathlib.Path(__file__).resolve().parents[2]
    findings = analyze_paths(
        [root / "src" / "repro" / "net" / "cohort.py"],
        [MirrorConstantParityRule()],
        root=root,
    )
    assert findings == []
