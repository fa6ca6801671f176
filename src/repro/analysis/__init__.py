"""Domain-aware static analysis for the PicoCube reproduction.

The codebase rests on two conventions that ordinary linters cannot
see: every quantity carries an SI unit suffix (``_v``, ``_a``, ``_w``,
``_s``…, see :mod:`repro.units`), and every stochastic or time-varying
behaviour is deterministically seeded so runs replay bit-exactly.
This package enforces both — plus a handful of API contracts — at the
AST level, before a simulation ever runs:

- **Unit rules** (``UNIT001``–``UNIT003``): suffix-mismatched argument
  bindings, mixed-dimension ``+``/``-``, and bare ``1e-…`` SI literals.
- **Flow unit rules** (``UNIT004``–``UNIT005``): the flow-sensitive
  tier — an abstract interpreter (:mod:`repro.analysis.flow`)
  propagates dimensions through assignments, field access, and calls,
  catching conflicts one or more hops from where a value was born, and
  functions whose unit-suffixed name disagrees with what they return.
- **Determinism rules** (``DET001``–``DET004``): unseeded ``random.*``
  draws, wall-clock reads inside ``repro.sim``/``repro.core``, unsorted
  set iteration in the replay hot paths, and ``exec``/``eval`` anywhere
  outside the sanctioned kernel compiler (``repro.power.compile``).
- **Contract rules** (``API001``–``API004``): unfrozen fault-event
  dataclasses, missing ``__slots__`` on registered hot-path classes,
  mutable default arguments, and rail-graph topology specs that are
  not frozen dataclasses.
- **Kernel rules** (``KER001``–``KER002``): the code the compiler
  *writes* — every registered topology × gate signature is emitted via
  ``iter_registered_kernel_sources`` and audited for structural and
  hygiene invariants (``repro lint --kernels``).

Run it as ``python -m repro lint [--json] [--baseline PATH]
[--update-baseline] [--no-flow] [--kernels] [--changed [REF]]
[--check-baseline] [paths…]``; see ``docs/LINTING.md`` for the rule
catalogue and the baseline workflow.
"""

from .baseline import load_baseline, split_by_baseline, write_baseline
from .dimensions import SUFFIX_DIMENSIONS, dimension_of_name
from .driver import (
    ModuleContext,
    ProjectIndex,
    Rule,
    analyze_paths,
    finalize_findings,
    iter_python_files,
)
from .findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from .report import render_json, render_text
from .rules_contracts import (
    SLOTS_REGISTRY,
    MissingSlotsRule,
    MutableDefaultRule,
    UnfrozenFaultEventRule,
    UnfrozenRailSpecRule,
    UnregisteredCheckpointStateRule,
)
from .rules_determinism import (
    DynamicCodeRule,
    UnorderedIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from .rules_flow_units import UnitFlowMismatchRule, UnitReturnMismatchRule
from .rules_kernels import (
    KernelHygieneRule,
    KernelStructureRule,
    audit_kernel_source,
    audit_registered_kernels,
)
from .rules_units import (
    UnitBareSiLiteralRule,
    UnitBindingMismatchRule,
    UnitMixedArithmeticRule,
)


def default_rules(*, flow: bool = True):
    """Fresh instances of every registered rule, in report order.

    ``flow=False`` drops the flow-sensitive tier (UNIT004/UNIT005) —
    the ``--no-flow`` escape hatch for quick editor runs.  The kernel
    rules are always in the list but carry a synthetic module prefix no
    real file matches; they fire only through the ``--kernels`` audit
    entry point (:func:`audit_registered_kernels`).
    """
    rules = [
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
        UnregisteredCheckpointStateRule(),
        KernelStructureRule(),
        KernelHygieneRule(),
    ]
    if flow:
        rules[3:3] = [UnitFlowMismatchRule(), UnitReturnMismatchRule()]
    return rules


__all__ = [
    "DynamicCodeRule",
    "Finding",
    "KernelHygieneRule",
    "KernelStructureRule",
    "MissingSlotsRule",
    "ModuleContext",
    "MutableDefaultRule",
    "ProjectIndex",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SLOTS_REGISTRY",
    "SUFFIX_DIMENSIONS",
    "UnfrozenFaultEventRule",
    "UnfrozenRailSpecRule",
    "UnregisteredCheckpointStateRule",
    "UnitBareSiLiteralRule",
    "UnitBindingMismatchRule",
    "UnitFlowMismatchRule",
    "UnitMixedArithmeticRule",
    "UnitReturnMismatchRule",
    "UnorderedIterationRule",
    "UnseededRandomRule",
    "WallClockRule",
    "analyze_paths",
    "audit_kernel_source",
    "audit_registered_kernels",
    "default_rules",
    "dimension_of_name",
    "finalize_findings",
    "iter_python_files",
    "load_baseline",
    "render_json",
    "render_text",
    "split_by_baseline",
    "write_baseline",
]
