"""KER001/KER002: auditing the kernels the compiler emits."""

import pytest

from repro.analysis import audit_kernel_source, audit_registered_kernels
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


def test_every_registered_kernel_audits_clean():
    findings = audit_registered_kernels()
    assert findings == []


def test_registry_emits_every_topology_and_signature():
    seen = list(iter_registered_kernel_sources())
    kinds = {kind for kind, _sig, _src, _failure in seen}
    assert {"cots", "ic", "direct-ldo", "single-sc"} <= kinds
    assert all(source is not None for _k, _s, source, _failure in seen)
    # three gate states per gate, at least one gate per topology
    assert len(seen) >= 3 * len(kinds)


def test_rebound_local_without_self_reference_fails(sample_kernel):
    kind, sig, source = sample_kernel
    corrupted = None
    for line in source.splitlines():
        text = line.strip()
        if " = " in text and not text.startswith(("#", "if", "return")):
            name, rhs = text.split(" = ", 1)
            if name.startswith("_s") and f"({name}," in rhs:
                # accumulator line `_sN = _np.add(_sN, x, out=...)` ->
                # drop the self-read
                corrupted = source.replace(
                    text, f"{name} = " + rhs.replace(f"({name},", "(_z,", 1))
                break
    assert corrupted is not None and corrupted != source
    findings = audit_kernel_source(kind, sig, corrupted)
    assert any(f.rule_id == "KER001" and "rebound" in f.message
               for f in findings)


def test_wrong_signature_fails(sample_kernel):
    kind, sig, source = sample_kernel
    corrupted = source.replace(
        "def _kernel(v, loads, masks, factors, shape, work, _np=np):",
        "def _kernel(v, loads, factors, shape, _np=np):")
    assert corrupted != source
    findings = audit_kernel_source(kind, sig, corrupted)
    assert any(f.rule_id == "KER001" and "signature" in f.message
               for f in findings)


def test_unconsumed_mask_fails(sample_kernel):
    kind, sig, source = sample_kernel
    # Append a mask that nothing reads.
    lines = source.rstrip().splitlines()
    lines.insert(2, "    _b999 = v < 0.0")
    corrupted = "\n".join(lines) + "\n"
    findings = audit_kernel_source(kind, sig, corrupted)
    assert any(f.rule_id == "KER001" and "_b999" in f.message
               and "never" in f.message for f in findings)


def test_missing_bad_any_check_fails(sample_kernel):
    kind, sig, source = sample_kernel
    assert "_bad.any()" in source
    corrupted = source.replace("_bad.any()", "_bad.all()")
    findings = audit_kernel_source(kind, sig, corrupted)
    assert any(f.rule_id == "KER001" and "_bad" in f.message
               for f in findings)


def test_float32_narrowing_fails(sample_kernel):
    kind, sig, source = sample_kernel
    corrupted = source.replace("return _i_src,",
                               "return _i_src.astype(_np.float32),")
    assert corrupted != source
    findings = audit_kernel_source(kind, sig, corrupted)
    assert any(f.rule_id == "KER001" and "float64" in f.message
               for f in findings)


def test_unparseable_kernel_fails(sample_kernel):
    kind, sig, source = sample_kernel
    findings = audit_kernel_source(kind, sig, source + "\n    def:")
    assert any(f.rule_id == "KER001" and "parse" in f.message
               for f in findings)


def test_import_in_kernel_fails_hygiene(sample_kernel):
    kind, sig, source = sample_kernel
    lines = source.rstrip().splitlines()
    lines.insert(2, "    import os")
    findings = audit_kernel_source(kind, sig, "\n".join(lines) + "\n")
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
    corrupted = source.replace("_bad.any()", "_bad.all()")
    assert corrupted != source
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
    assert all(state != "mask" for _kind, sig in floats
               for _gate, state in sig)
    assert len(floats) >= 2 * len(kinds)


def test_float_kernel_findings_are_labelled_float(float_kernel):
    kind, sig, source = float_kernel
    corrupted = source.replace("factors):", "loads):", 1)
    findings = audit_kernel_source(kind, sig, corrupted)
    assert any(f.rule_id == "KER001" and "signature" in f.message
               for f in findings)
    assert all(f.path.endswith(":float>") for f in findings)


def test_float_kernel_unguarded_envelope_test_fails(float_kernel):
    kind, sig, source = float_kernel
    lines = source.splitlines()
    index = next(i for i, line in enumerate(lines)
                 if line.strip().startswith("if _b"))
    # Drop one `if _bN:` / `return None` pair.
    corrupted = "\n".join(lines[:index] + lines[index + 2:]) + "\n"
    findings = audit_kernel_source(kind, sig, corrupted)
    assert any(f.rule_id == "KER001" and "early return" in f.message
               for f in findings)


def test_float_kernel_must_end_with_a_flat_tuple(float_kernel):
    kind, sig, source = float_kernel
    corrupted = source.replace("return _i_src,", "return {'i': _i_src},")
    assert corrupted != source
    findings = audit_kernel_source(kind, sig, corrupted)
    assert any(f.rule_id == "KER001" and "flat tuple" in f.message
               for f in findings)
