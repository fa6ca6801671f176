"""Design-space exploration helpers for SC converters (ref [13]).

These utilities regenerate the analysis style of Seeman-Sanders: efficiency
versus load under PFM control, optimal split of silicon between switches
and capacitors, and cross-topology comparisons at a common conversion
ratio.  They back the E4 (efficiency) and E16 (topology sweep) benchmarks
and the ``power_ic_design`` example.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, ElectricalError
from .sc_converter import SwitchedCapacitorConverter, design_for_load
from .scnetwork import SCNetwork
from .topologies import step_up_family


@dataclasses.dataclass(frozen=True)
class EfficiencyPoint:
    """One point of an efficiency-vs-load sweep."""

    i_out: float
    efficiency: float
    f_sw: float
    v_out: float


def efficiency_curve(
    converter: SwitchedCapacitorConverter,
    v_in: float,
    loads: Sequence[float],
) -> List[EfficiencyPoint]:
    """Sweep converter efficiency across load currents under PFM control."""
    points = []
    for i_out in loads:
        point = converter.solve(v_in, i_out)
        points.append(
            EfficiencyPoint(
                i_out=i_out,
                efficiency=point.efficiency,
                f_sw=converter.required_frequency(v_in, i_out),
                v_out=point.v_out,
            )
        )
    return points


def log_spaced_loads(i_min: float, i_max: float, count: int = 25) -> List[float]:
    """Logarithmically spaced load currents for sweeps."""
    if not 0.0 < i_min < i_max:
        raise ConfigurationError("need 0 < i_min < i_max")
    if count < 2:
        raise ConfigurationError("need at least two sweep points")
    step = (math.log(i_max) - math.log(i_min)) / (count - 1)
    return [math.exp(math.log(i_min) + k * step) for k in range(count)]


def wide_load_range_efficiency(
    converter: SwitchedCapacitorConverter,
    v_in: float,
    i_min: float,
    i_max: float,
    threshold: float = 0.8,
    count: int = 40,
) -> float:
    """Fraction of a log-load decade sweep meeting an efficiency threshold.

    The paper's claim is qualitative — SC converters "operate efficiently
    over large load ranges by varying the switching frequency" — this
    makes it a measurable number.
    """
    points = efficiency_curve(converter, v_in, log_spaced_loads(i_min, i_max, count))
    passing = sum(1 for p in points if p.efficiency >= threshold)
    return passing / len(points)


def optimize_fsl_fraction(
    name: str,
    network: SCNetwork,
    v_in: float,
    v_target: float,
    i_load: float,
    fractions: Optional[Sequence[float]] = None,
    **design_kwargs,
) -> Dict[str, float]:
    """Search the switch/capacitor impedance split for best efficiency.

    Returns a dict with the winning fraction and its efficiency at the
    design load.  This mirrors the "size-optimized devices" of [14].
    """
    if fractions is None:
        fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    best_fraction, best_eta = None, -1.0
    for fraction in fractions:
        converter = design_for_load(
            name,
            network,
            v_in=v_in,
            v_target=v_target,
            i_load_max=i_load,
            fsl_fraction=fraction,
            **design_kwargs,
        )
        eta = converter.efficiency_at(v_in, i_load)
        if eta > best_eta:
            best_fraction, best_eta = fraction, eta
    return {"fsl_fraction": best_fraction, "efficiency": best_eta}


@dataclasses.dataclass(frozen=True)
class SiliconDensities:
    """Per-area device densities of an integrated process.

    Defaults approximate the paper's 0.13 um ST process: high-density
    (MIM/deep-trench) capacitors of a few fF/um^2 and thick-oxide 2.5 V
    switches whose on-conductance per unit gate area follows
    ``mu Cox Vov / L^2``.
    """

    cap_f_per_m2: float = 7e-3          # 7 fF/um^2
    switch_s_per_m2: float = 2e8        # ~0.05 mS per um^2 of device

    def __post_init__(self) -> None:
        if self.cap_f_per_m2 <= 0.0 or self.switch_s_per_m2 <= 0.0:
            raise ConfigurationError("densities must be positive")


@dataclasses.dataclass(frozen=True)
class AreaDesign:
    """Outcome of a silicon-area optimisation."""

    area_total_m2: float
    cap_fraction: float
    c_total: float
    g_total: float
    efficiency: float

    @property
    def area_mm2(self) -> float:
        """Total power-conversion silicon, mm^2."""
        return self.area_total_m2 * 1e6


def _converter_for_area(
    name: str,
    network: SCNetwork,
    cap_fraction: float,
    area_total: float,
    v_target: float,
    densities: SiliconDensities,
    f_max: float,
    tau_gate: float,
    alpha_bottom_plate: float,
    i_controller: float,
) -> SwitchedCapacitorConverter:
    c_total = cap_fraction * area_total * densities.cap_f_per_m2
    g_total = (1.0 - cap_fraction) * area_total * densities.switch_s_per_m2
    return SwitchedCapacitorConverter(
        name,
        network,
        c_total=c_total,
        g_total=g_total,
        v_target=v_target,
        f_max=f_max,
        tau_gate=tau_gate,
        alpha_bottom_plate=alpha_bottom_plate,
        i_controller=i_controller,
    )


def optimize_area_split(
    name: str,
    network: SCNetwork,
    v_in: float,
    v_target: float,
    i_load: float,
    area_total_m2: float,
    densities: Optional[SiliconDensities] = None,
    f_max: float = 20e6,
    tau_gate: float = 1.5e-12,
    alpha_bottom_plate: float = 0.0015,
    i_controller: float = 0.35e-6,
    steps: int = 40,
) -> AreaDesign:
    """Split a die-area budget between capacitors and switches.

    Sweeps the capacitor share of the area and returns the split with the
    best efficiency at the design load — the real constraint an IC
    designer optimises under (ref [14]'s "size-optimized devices").
    Raises :class:`ConfigurationError` if no split can carry the load.
    """
    if area_total_m2 <= 0.0 or i_load <= 0.0:
        raise ConfigurationError("area and load must be positive")
    if steps < 3:
        raise ConfigurationError("need at least three sweep steps")
    densities = densities or SiliconDensities()
    best: Optional[AreaDesign] = None
    for k in range(1, steps):
        fraction = k / steps
        converter = _converter_for_area(
            name, network, fraction, area_total_m2, v_target, densities,
            f_max, tau_gate, alpha_bottom_plate, i_controller,
        )
        try:
            eta = converter.efficiency_at(v_in, i_load)
        except ElectricalError:
            continue  # this split cannot carry the load
        if best is None or eta > best.efficiency:
            best = AreaDesign(
                area_total_m2=area_total_m2,
                cap_fraction=fraction,
                c_total=converter.c_total,
                g_total=converter.g_total,
                efficiency=eta,
            )
    if best is None:
        raise ConfigurationError(
            f"{name}: no cap/switch split of {area_total_m2 * 1e6:.3f} mm^2 "
            f"can deliver {i_load:.4g} A at {v_target} V from {v_in} V"
        )
    return best


def minimum_area_for_efficiency(
    name: str,
    network: SCNetwork,
    v_in: float,
    v_target: float,
    i_load: float,
    eta_target: float,
    densities: Optional[SiliconDensities] = None,
    **kwargs,
) -> AreaDesign:
    """Smallest die area hitting an efficiency target (log bisection).

    The flip side of :func:`optimize_area_split`: how much real estate
    does the paper's ">84 %" claim actually cost?
    """
    if not 0.0 < eta_target < 1.0:
        raise ConfigurationError("efficiency target outside (0, 1)")
    densities = densities or SiliconDensities()
    lo, hi = 1e-12, 1e-4  # 1 um^2 .. 100 mm^2
    best_design = None
    ceiling = optimize_area_split(
        name, network, v_in, v_target, i_load, hi, densities, **kwargs
    )
    if ceiling.efficiency < eta_target:
        raise ConfigurationError(
            f"{name}: eta {eta_target:.0%} unreachable even at "
            f"{hi * 1e6:.0f} mm^2 (ceiling {ceiling.efficiency:.1%})"
        )
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        try:
            design = optimize_area_split(
                name, network, v_in, v_target, i_load, mid, densities,
                **kwargs,
            )
        except ConfigurationError:
            lo = mid
            continue
        if design.efficiency >= eta_target:
            best_design = design
            hi = mid
        else:
            lo = mid
    return best_design


@dataclasses.dataclass(frozen=True)
class TopologyComparison:
    """Cost metrics of one topology at a conversion ratio."""

    family: str
    ratio: float
    cap_count: int
    switch_count: int
    cap_multiplier_sum: float
    switch_multiplier_sum: float
    cap_energy_metric: float
    switch_va_metric: float


def compare_step_up_topologies(
    ratio: int, families: Sequence[str]
) -> List[TopologyComparison]:
    """Analyse several step-up families at one target ratio.

    Families that cannot hit the ratio exactly (Fibonacci at non-Fibonacci
    ratios) are skipped.
    """
    rows = []
    for family in families:
        try:
            network = step_up_family(family, ratio)
        except ConfigurationError:
            continue
        analysis = network.analyze_cached()
        rows.append(
            TopologyComparison(
                family=family,
                ratio=analysis.ratio,
                cap_count=len(network.capacitors),
                switch_count=len(network.switches),
                cap_multiplier_sum=analysis.cap_multiplier_sum,
                switch_multiplier_sum=analysis.switch_multiplier_sum,
                cap_energy_metric=analysis.cap_energy_metric(),
                switch_va_metric=analysis.switch_va_metric(),
            )
        )
    return rows
