"""KER002: auditing the kernels the compiler emits."""

import pytest

from repro.analysis.rules_kernels import audit_kernel_source, audit_registered_kernels
from repro.power.compile import iter_registered_kernel_sources


@pytest.fixture(scope="module")
def sample_kernel():
    """One real emitted kernel (kind, signature, source) with an
    envelope check."""
    for kind, sig, source, _failure in iter_registered_kernel_sources():
        if source is not None and "_bad.any()" in source:
            return kind, sig, source
    raise AssertionError("no emittable kernel in the registry")


@pytest.fixture(scope="module")
def float_kernel():
    """One real float-dialect kernel (kind, signature, source)."""
    for kind, sig, source, _failure in iter_registered_kernel_sources():
        if source is not None and "def _float_kernel(" in source:
            return kind, sig, source
    raise AssertionError("no float kernel in the registry")


def with_import(source):
    """``source`` with an ``import os`` as its kernel's first statement."""
    lines = source.rstrip().splitlines()
    lines.insert(2, "    import os")
    return "\n".join(lines) + "\n"


def test_every_registered_kernel_audits_clean():
    findings = audit_registered_kernels()
    assert findings == []


def test_registry_emits_every_topology_and_signature():
    seen = list(iter_registered_kernel_sources())
    kinds = {kind for kind, _sig, _src, _failure in seen}
    assert {"cots", "ic", "direct-ldo", "single-sc"} <= kinds
    assert all(source is not None for _k, _s, source, _failure in seen)
    assert {state for _k, sig, _src, _failure in seen
            for _gate, state in sig} == {"open", "closed"}
    # one gate per topology: open and closed, batch and float dialect
    assert len(seen) == 4 * len(kinds) == 16


def test_unparseable_kernel_fails(sample_kernel):
    kind, sig, source = sample_kernel
    findings = audit_kernel_source(kind, sig, source + "\n    def:")
    assert any(f.rule_id == "KER002" and "parse" in f.message
               for f in findings)


def test_import_in_kernel_fails_hygiene(sample_kernel):
    kind, sig, source = sample_kernel
    findings = audit_kernel_source(kind, sig, with_import(source))
    assert any(f.rule_id == "KER002" and "import" in f.message
               for f in findings)


def test_wall_clock_in_kernel_fails_hygiene(sample_kernel):
    kind, sig, source = sample_kernel
    lines = source.rstrip().splitlines()
    lines.insert(2, "    _t = time.time()")
    findings = audit_kernel_source(kind, sig, "\n".join(lines) + "\n")
    assert any(f.rule_id == "KER002" and "wall clock" in f.message
               for f in findings)


def test_dynamic_code_in_kernel_fails_hygiene(sample_kernel):
    # The generator itself may exec (DET004 allow-list), but a kernel
    # that *emits* dynamic code is outside the sanction.
    kind, sig, source = sample_kernel
    lines = source.rstrip().splitlines()
    lines.insert(2, "    eval('1+1')")
    findings = audit_kernel_source(kind, sig, "\n".join(lines) + "\n")
    assert any(f.rule_id == "KER002" for f in findings)


def test_kernel_findings_have_stable_synthetic_paths(sample_kernel):
    kind, sig, source = sample_kernel
    corrupted = with_import(source)
    first = audit_kernel_source(kind, sig, corrupted)
    second = audit_kernel_source(kind, sig, corrupted)
    assert [f.fingerprint for f in first] == [f.fingerprint
                                             for f in second]
    assert all(f.path.startswith(f"<kernel:{kind}:") for f in first)


def test_registry_emits_a_float_kernel_per_open_closed_signature():
    seen = list(iter_registered_kernel_sources())
    floats = [(kind, sig) for kind, sig, source, _failure in seen
              if source is not None and "def _float_kernel(" in source]
    kinds = {kind for kind, _sig in floats}
    assert {"cots", "ic", "direct-ldo", "single-sc"} <= kinds
    assert len(floats) == 2 * len(kinds)


def test_float_kernel_findings_are_labelled_float(float_kernel):
    kind, sig, source = float_kernel
    findings = audit_kernel_source(kind, sig, with_import(source))
    assert any(f.rule_id == "KER002" and "import" in f.message
               for f in findings)
    assert all(f.path.endswith(":float>") for f in findings)


