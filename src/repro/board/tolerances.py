"""Packaging alignment tolerance analysis (paper §4.2).

"The plastic rings, outer package, and lid were built using
stereolithography (SLA), post-processed to create a very close fit around
the PCBs; horizontal alignment is a critical parameter to prevent shorts
between adjacent contact pads."  And §5 warns that the next bus revision
brings "smaller pads with tighter tolerances."

The model: adjacent pads on the ring are separated by a gap; the
elastomer connects everything within a contact footprint around each pad.
A horizontal misalignment ``dx`` of the board inside the tube shifts every
pad relative to its mate.  Three failure modes:

* **open** — overlap between mated pads falls below the minimum needed
  to catch a wire;
* **short** — a pad's footprint reaches within one wire pitch of the
  *neighbouring* pad's mate;
* **ok** — otherwise.

:func:`monte_carlo_yield` samples a fit tolerance and reports assembly
yield — the quantitative version of the paper's "critical parameter"
remark, and the tool for deciding how tight the SLA post-processing must
be before the 18-pad ring can shrink.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from ..errors import ConfigurationError
from ..units import milli
from .elastomer import ElastomericConnector
from .pcb import PadRing


@dataclasses.dataclass(frozen=True)
class AlignmentOutcome:
    """Classification of one assembly's pad interface."""

    misalignment_m: float
    status: str  # "ok" | "open" | "short"


class PadAlignmentModel:
    """Geometric failure model for one elastomer/pad-ring interface."""

    def __init__(
        self,
        ring: Optional[PadRing] = None,
        connector: Optional[ElastomericConnector] = None,
        pad_gap_m: float = milli(0.6),
    ) -> None:
        if pad_gap_m <= 0.0:
            raise ConfigurationError("pad gap must be positive")
        self.ring = ring or PadRing()
        self.connector = connector or ElastomericConnector()
        self.pad_gap_m = pad_gap_m

    @property
    def min_overlap_m(self) -> float:
        """Overlap needed to guarantee at least one wire contact."""
        return self.connector.pitch_m + self.connector.wire_diameter_m

    @property
    def short_clearance_m(self) -> float:
        """How close a pad may creep to its neighbour's mate: one pitch."""
        return self.connector.pitch_m

    def max_safe_misalignment(self) -> float:
        """Largest |dx| with full margin against both failure modes."""
        open_limit = self.ring.pad_length_m - self.min_overlap_m
        short_limit = self.pad_gap_m - self.short_clearance_m
        return min(open_limit, short_limit)

    def classify(self, misalignment_m: float) -> AlignmentOutcome:
        """Outcome for a given signed horizontal misalignment."""
        dx = abs(misalignment_m)
        overlap = self.ring.pad_length_m - dx
        if overlap < self.min_overlap_m:
            return AlignmentOutcome(misalignment_m, "open")
        # Shorts happen first: the shifted pad approaches the next pad's
        # mate across the inter-pad gap.
        if dx > self.pad_gap_m - self.short_clearance_m:
            return AlignmentOutcome(misalignment_m, "short")
        return AlignmentOutcome(misalignment_m, "ok")


@dataclasses.dataclass(frozen=True)
class YieldReport:
    """Monte-Carlo assembly yield at one fit tolerance."""

    fit_tolerance_m: float
    samples: int
    ok: int
    opens: int
    shorts: int

    @property
    def yield_fraction(self) -> float:
        """Fraction of assemblies with every interface intact."""
        return self.ok / self.samples if self.samples else 0.0


def monte_carlo_yield(
    model: PadAlignmentModel,
    fit_tolerance_m: float,
    samples: int = 2000,
    interfaces: int = 4,
    seed: int = 2008,
) -> YieldReport:
    """Assembly yield for a given SLA fit tolerance.

    Each assembly draws an independent misalignment per board interface
    from a truncated normal with sigma = tolerance/2 (the fit constrains
    the boards mechanically); the assembly survives only if *all*
    interfaces are ok.
    """
    if fit_tolerance_m <= 0.0:
        raise ConfigurationError("fit tolerance must be positive")
    if samples < 1 or interfaces < 1:
        raise ConfigurationError("need at least one sample and interface")
    rng = random.Random(seed)
    sigma = fit_tolerance_m / 2.0
    ok = opens = shorts = 0
    for _ in range(samples):
        worst = "ok"
        for _ in range(interfaces):
            dx = max(-fit_tolerance_m, min(fit_tolerance_m, rng.gauss(0.0, sigma)))
            status = model.classify(dx).status
            if status == "short":
                worst = "short"
                break
            if status == "open":
                worst = "open"
        if worst == "ok":
            ok += 1
        elif worst == "open":
            opens += 1
        else:
            shorts += 1
    return YieldReport(
        fit_tolerance_m=fit_tolerance_m,
        samples=samples,
        ok=ok,
        opens=opens,
        shorts=shorts,
    )


def merge_yield_reports(reports: "list[YieldReport]") -> YieldReport:
    """Combine chunked Monte-Carlo reports into one.

    All chunks must share a fit tolerance; counts add.  This is the
    reduction step of the parallel yield campaign: N seed-independent
    chunks merged in chunk order give the same report for any worker
    count.
    """
    if not reports:
        raise ConfigurationError("need at least one report to merge")
    tolerance = reports[0].fit_tolerance_m
    if any(r.fit_tolerance_m != tolerance for r in reports):
        raise ConfigurationError("cannot merge reports at different tolerances")
    return YieldReport(
        fit_tolerance_m=tolerance,
        samples=sum(r.samples for r in reports),
        ok=sum(r.ok for r in reports),
        opens=sum(r.opens for r in reports),
        shorts=sum(r.shorts for r in reports),
    )
