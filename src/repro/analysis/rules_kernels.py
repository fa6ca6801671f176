"""Generated-kernel auditing: lint the code the compiler writes.

``repro.power.compile`` emits straight-line kernels at runtime and
``exec``\\ s them — source no repository lint pass ever sees.  This
module closes that gap: ``audit_registered_kernels()`` asks the
compiler for every kernel it can emit (all registered rail topologies
crossed with every gate-state signature, via
``iter_registered_kernel_sources``), parses each one, and runs one
rule over the synthetic module:

``KER002 kernel-hygiene``
    The repository-wide determinism rules applied to kernel source:
    no imports, no wall-clock or unseeded-random calls, no nested
    ``exec``/``eval`` (the synthetic module name is *not* in DET004's
    allow-list, so a kernel that emitted dynamic code would flag).  A
    kernel the compiler cannot emit, or emits unparseable, is a KER002
    finding too, so the audit never silently covers less.

The kernels' structure (signature, envelope checks, accumulators,
float64 end to end) is not linted: a generator mistake there fails the
tier-1 batch/scalar equivalence tests (``docs/LINTING.md`` maps each
property to its test).  The rule carries a synthetic module prefix no
real file uses, so it is inert during a normal tree walk and fires only
through the audit entry points — but it still registers in
``default_rules()`` so ``--list-rules`` documents it and baselines can
reference it.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Iterator, List, Optional, Tuple

from .driver import ModuleContext, ProjectIndex, Rule
from .findings import SEVERITY_ERROR, Finding
from .rules_determinism import (
    _BANNED_CLOCK_CALLS,
    DynamicCodeRule,
    UnseededRandomRule,
    _dotted,
)

#: Synthetic dotted module name kernel contexts are tagged with.  Not a
#: real module — chosen so DET004's allow-list (which names the real
#: ``repro.power.compile``) does NOT cover it: dynamic code inside a
#: generated kernel is a finding even though the generator itself may
#: ``exec``.
KERNEL_MODULE = "repro.power.compile._kernel"


def kernel_context(kind: str, signature: tuple,
                   source: str) -> Tuple[Optional[ModuleContext],
                                         Optional[Finding]]:
    """Wrap one emitted kernel source as a lintable module context.

    The relpath is a stable ``<kernel:kind:gate=state,...>`` label —
    path-shaped but impossible as a real file, so findings (and their
    baseline fingerprints) identify the kernel, not a tmp file.
    """
    label = ",".join(f"{gate}={state}" for gate, state in signature)
    relpath = f"<kernel:{kind}:{label or 'no-gates'}>"
    try:
        tree = ast.parse(source)
        if "def _float_kernel(" in source:
            relpath = relpath[:-1] + ":float>"
    except SyntaxError as exc:
        return None, _audit_failure(
            relpath, f"emitted kernel does not parse: {exc.msg}",
            line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            snippet=(exc.text or "").strip())
    return ModuleContext(
        path=pathlib.Path(relpath),
        relpath=relpath,
        module=KERNEL_MODULE,
        source=source,
        tree=tree,
        lines=source.splitlines(),
    ), None


class KernelHygieneRule(Rule):
    """Repository determinism rules applied to emitted kernel source."""

    rule_id = "KER002"
    rule_name = "kernel-hygiene"
    severity = SEVERITY_ERROR
    description = ("emitted kernel contains imports, wall-clock or "
                   "random calls, or dynamic code, or cannot be "
                   "generated or parsed")
    module_prefixes = (KERNEL_MODULE,)

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield self.finding(
                    ctx, node,
                    "emitted kernel contains an import — kernels must "
                    "be closed over their namespace",
                )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in _BANNED_CLOCK_CALLS:
                    yield self.finding(
                        ctx, node,
                        f"emitted kernel calls wall clock `{dotted}()`",
                    )
        # Unseeded randomness and exec/eval: delegate to the real rules
        # (the synthetic module name is outside DET004's allow-list, so
        # dynamic code in a kernel flags even though the generator may
        # exec).
        for rule in (UnseededRandomRule(), DynamicCodeRule()):
            for finding in rule.check(ctx, index):
                yield dataclasses.replace(finding,
                                          rule_id=self.rule_id,
                                          rule_name=self.rule_name)


def _audit_failure(path: str, message: str, *, line: int = 1,
                   col: int = 0, snippet: str = "") -> Finding:
    """A KER002 finding for a kernel the audit could not inspect."""
    return Finding(
        path=path,
        line=line,
        col=col,
        rule_id=KernelHygieneRule.rule_id,
        rule_name=KernelHygieneRule.rule_name,
        severity=SEVERITY_ERROR,
        message=message,
        snippet=snippet,
    )


def audit_kernel_source(kind: str, signature: tuple,
                        source: str) -> List[Finding]:
    """Run the kernel rule over one emitted kernel source."""
    ctx, parse_finding = kernel_context(kind, signature, source)
    if parse_finding is not None:
        return [parse_finding]
    assert ctx is not None
    return list(KernelHygieneRule().check(ctx, ProjectIndex()))


def audit_registered_kernels() -> List[Finding]:
    """Audit every kernel the compiler can emit for registered topologies.

    The entry point behind ``repro lint --kernels``.  A topology the
    compiler cannot emit becomes a KER002 finding rather than an
    exception, so one unsupported plan does not hide the rest.
    """
    from repro.power.compile import iter_registered_kernel_sources

    findings: List[Finding] = []
    try:
        for kind, signature, source, failure \
                in iter_registered_kernel_sources():
            if source is None:
                label = ",".join(f"{g}={s}" for g, s in signature)
                findings.append(_audit_failure(
                    f"<kernel:{kind}:{label or 'no-gates'}>",
                    f"kernel generation failed: {failure}"))
                continue
            findings.extend(audit_kernel_source(kind, signature, source))
    except Exception as exc:  # registry import/build failure
        findings.append(_audit_failure(
            "<kernel:registry>",
            f"kernel registry enumeration failed: {exc!r}"))
    return findings
