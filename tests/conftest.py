"""Suite-wide fixtures."""

import pytest

from repro.power.compile import kernel_metrics, reset_kernel_metrics


@pytest.fixture(autouse=True)
def _kernels_retire_only_on_purpose(request):
    """A retired kernel is answered by the reference walk, so equality
    alone would not notice it.  Each test starts from zeroed kernel
    counters and may retire only as many kernels, batch and float, as it
    declares (``test.retires``, default 0)."""
    reset_kernel_metrics()
    yield
    metrics = kernel_metrics()
    retired = metrics.mismatches + metrics.scalar_mismatches
    declared = getattr(request.function, "retires", 0)
    assert retired == declared, (
        f"{retired} compiled kernel(s) disagreed with the reference walk; "
        f"the test declares {declared}"
    )
