"""Domain-aware static analysis for the PicoCube reproduction.

The codebase rests on two conventions that ordinary linters cannot
see: every quantity carries an SI unit suffix (``_v``, ``_a``, ``_w``,
``_s``…, see :mod:`repro.units`), and every stochastic or time-varying
behaviour is deterministically seeded so runs replay bit-exactly.
This package enforces both — plus a handful of API contracts — at the
AST level, before a simulation ever runs:

- **Unit rules** (``UNIT001``–``UNIT003``): suffix-mismatched argument
  bindings, mixed-dimension ``+``/``-``, and bare ``1e-…`` SI literals.
- **Determinism rules** (``DET001``–``DET004``): unseeded ``random.*``
  draws, wall-clock reads inside ``repro.sim``/``repro.core``, unsorted
  set iteration in the replay hot paths, and ``exec``/``eval`` anywhere
  outside the sanctioned kernel compiler (``repro.power.compile``).
- **Contract rules** (``API001``–``API004``): unfrozen fault-event
  dataclasses, missing ``__slots__`` on registered hot-path classes,
  mutable default arguments, and rail-graph topology specs that are
  not frozen dataclasses.
- **Kernel rule** (``KER002``): the code the compiler *writes* — every
  registered topology × gate signature is emitted via
  ``iter_registered_kernel_sources`` and audited for imports,
  wall-clock or random calls, and dynamic code
  (``repro lint --kernels``).

Run it as ``python -m repro lint [--json] [--baseline PATH]
[--update-baseline] [--kernels] [--changed [REF]] [--check-baseline]
[paths…]``; see ``docs/LINTING.md`` for the rule catalogue, the
evidence behind each rule, and the baseline workflow.
"""

from .rules_contracts import (
    MissingSlotsRule,
    MutableDefaultRule,
    UnfrozenFaultEventRule,
    UnfrozenRailSpecRule,
)
from .rules_determinism import (
    DynamicCodeRule,
    UnorderedIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from .rules_kernels import KernelHygieneRule
from .rules_units import (
    UnitBareSiLiteralRule,
    UnitBindingMismatchRule,
    UnitMixedArithmeticRule,
)


def default_rules():
    """Fresh instances of every registered rule, in report order.

    The kernel rule is always in the list but carries a synthetic
    module prefix no real file matches; it fires only through the
    ``--kernels`` audit entry point
    (:func:`repro.analysis.rules_kernels.audit_registered_kernels`).
    """
    return [
        UnitBindingMismatchRule(),
        UnitMixedArithmeticRule(),
        UnitBareSiLiteralRule(),
        UnseededRandomRule(),
        WallClockRule(),
        UnorderedIterationRule(),
        DynamicCodeRule(),
        UnfrozenFaultEventRule(),
        MissingSlotsRule(),
        MutableDefaultRule(),
        UnfrozenRailSpecRule(),
        KernelHygieneRule(),
    ]


__all__ = ["default_rules"]
