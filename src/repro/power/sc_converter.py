"""Behavioral switched-capacitor DC-DC converter model.

Combines an :class:`~repro.power.scnetwork.SCAnalysis` (conversion ratio and
charge multipliers) with device budgets (total flying capacitance, total
switch conductance) and technology constants (gate charge per conductance,
bottom-plate fraction) into the loss model of Seeman-Sanders [13,14]:

* **Conduction loss** — the converter behaves as an ideal M:1 transformer
  with series output impedance ``R_out = sqrt(R_SSL^2 + R_FSL^2)``;
  delivering ``i_out`` dissipates ``i_out^2 R_out`` and drops the output to
  ``M V_in - i_out R_out``.
* **Gate-drive loss** — every cycle charges the switch gates:
  ``P_gate = f_sw * G_tot * tau_gate * V_drive^2``.
* **Bottom-plate loss** — parasitic plate capacitance swings each cycle:
  ``P_bp = f_sw * alpha_bp * C_tot * V_swing^2``.
* **Controller quiescent** — clocks, comparators and references draw a
  constant ``i_controller`` from the input.

Regulation is pulse-frequency modulation (PFM), as in the PicoCube IC: the
switching frequency rises with load so that the output holds a target
voltage, which is what makes these converters "operate efficiently over
large load ranges by varying the switching frequency" (paper §7.1).
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError, ElectricalError
from .base import Converter, OperatingPoint
from .scnetwork import SCAnalysis, SCNetwork


class SwitchedCapacitorConverter(Converter):
    """A PFM-regulated two-phase SC converter.

    Parameters
    ----------
    name:
        Label used in error messages and audit channels.
    network:
        The switched-capacitor topology (analysed once at construction).
    c_total:
        Total flying capacitance budget, farads (allocated optimally
        across the topology's capacitors).
    g_total:
        Total switch on-conductance budget, siemens.
    v_target:
        Regulated output voltage.  Must be below the ideal ``M * v_in`` at
        the intended input or the converter cannot regulate.
    f_max:
        Maximum switching frequency, Hz (regulation saturates here).
    f_min:
        Housekeeping floor frequency, Hz (PFM idles here at no load).
    tau_gate:
        Gate charge per switch conductance, seconds (technology constant;
        ~10 ps for the 0.13 um process with 2.5 V devices).
    alpha_bottom_plate:
        Parasitic bottom-plate capacitance as a fraction of the flying
        capacitance (~0.05 for integrated high-density caps, ~0 discrete).
    i_controller:
        Constant controller/reference current from the input, amperes.
    i_leak_off:
        Input leakage when disabled, amperes.
    """

    def __init__(
        self,
        name: str,
        network: SCNetwork,
        c_total: float,
        g_total: float,
        v_target: float,
        f_max: float = 10e6,
        f_min: float = 1e3,
        tau_gate: float = 10e-12,
        alpha_bottom_plate: float = 0.05,
        i_controller: float = 0.5e-6,
        i_leak_off: float = 0.0,
    ) -> None:
        super().__init__(name)
        if c_total <= 0.0 or g_total <= 0.0:
            raise ConfigurationError(f"{name}: c_total and g_total must be positive")
        if not 0.0 < f_min <= f_max:
            raise ConfigurationError(f"{name}: need 0 < f_min <= f_max")
        if tau_gate < 0.0 or alpha_bottom_plate < 0.0 or i_controller < 0.0:
            raise ConfigurationError(f"{name}: technology constants must be >= 0")
        self.analysis: SCAnalysis = network.analyze_cached()
        if self.analysis.ratio <= 0.0:
            raise ConfigurationError(
                f"{name}: only positive conversion ratios supported, "
                f"got {self.analysis.ratio}"
            )
        if v_target <= 0.0:
            raise ConfigurationError(f"{name}: v_target must be positive")
        self.c_total = c_total
        self.g_total = g_total
        self.v_target = v_target
        self.f_max = f_max
        self.f_min = f_min
        self.tau_gate = tau_gate
        self.alpha_bottom_plate = alpha_bottom_plate
        self.i_controller = i_controller
        self.i_leak_off = i_leak_off

    # -- impedance -----------------------------------------------------------

    @property
    def ratio(self) -> float:
        """Ideal conversion ratio M = V_out/V_in."""
        return self.analysis.ratio

    @property
    def r_fsl(self) -> float:
        """Fast-switching-limit output impedance, ohms (f-independent)."""
        return self.analysis.r_fsl(self.g_total)

    def r_ssl(self, f_sw: float) -> float:
        """Slow-switching-limit output impedance at ``f_sw``, ohms."""
        return self.analysis.r_ssl(self.c_total, f_sw)

    def r_out(self, f_sw: float) -> float:
        """Total output impedance at ``f_sw`` (quadrature combination)."""
        return math.hypot(self.r_ssl(f_sw), self.r_fsl)

    @property
    def r_out_min(self) -> float:
        """Lowest achievable output impedance (at f_max)."""
        return self.r_out(self.f_max)

    # -- regulation ------------------------------------------------------------

    def required_frequency(self, v_in: float, i_out: float) -> float:
        """PFM frequency that regulates ``v_target`` at this load.

        Raises :class:`ElectricalError` when the target is unreachable —
        either the ideal ratio is insufficient (input too low) or the
        FSL impedance alone drops too much voltage (load too heavy).
        """
        self._require_positive_load(i_out)
        v_ideal = self.ratio * v_in
        if v_ideal <= self.v_target:
            raise ElectricalError(
                f"{self.name}: cannot regulate {self.v_target} V from "
                f"{v_in} V input (ideal output {v_ideal:.3f} V)"
            )
        if i_out <= 0.0:
            return self.f_min
        r_needed = (v_ideal - self.v_target) / i_out
        if r_needed <= self.r_fsl:
            raise ElectricalError(
                f"{self.name}: load {i_out:.4g} A needs R_out "
                f"{r_needed:.3g} ohm but FSL floor is {self.r_fsl:.3g} ohm"
            )
        # Runtime squares multiply: CPython's ``x**2`` calls libm ``pow``,
        # which can round differently from the batch kernels' ``x * x``.
        r_ssl_needed = math.sqrt(r_needed * r_needed - self.r_fsl**2)
        f_sw = self.analysis.cap_multiplier_sum**2 / (self.c_total * r_ssl_needed)
        return min(max(f_sw, self.f_min), self.f_max)

    def output_ripple(self, v_in: float, i_out: float, c_out: float) -> float:
        """Peak-to-peak output ripple on a reservoir cap, volts.

        Under PFM each switching cycle hands the output a charge packet
        ``i_out / f_sw``; the reservoir integrates it, so the sawtooth
        ripple is ``i_out / (f_sw * c_out)``.  This is the disturbance the
        paper's post-regulating LDO exists to smooth for the RF section.
        """
        if c_out <= 0.0:
            raise ConfigurationError(f"{self.name}: c_out must be positive")
        f_sw = self.required_frequency(v_in, i_out)
        return i_out / (f_sw * c_out)

    def max_load_current(self, v_in: float) -> float:
        """Largest load current that still regulates ``v_target``."""
        v_ideal = self.ratio * v_in
        if v_ideal <= self.v_target:
            return 0.0
        return (v_ideal - self.v_target) / self.r_out(self.f_max)

    # -- solving ------------------------------------------------------------------

    def solve(self, v_in: float, i_out: float) -> OperatingPoint:
        """Steady-state operating point under PFM regulation."""
        self._require_positive_load(i_out)
        if not self.enabled:
            return OperatingPoint(
                v_in=v_in,
                v_out=0.0,
                i_in=self.i_leak_off,
                i_out=0.0,
                losses={"off-leakage": v_in * self.i_leak_off},
            )
        if v_in <= 0.0:
            raise ElectricalError(f"{self.name}: input voltage {v_in} V not positive")
        f_sw = self.required_frequency(v_in, i_out)
        v_out = self.ratio * v_in - i_out * self.r_out(f_sw)
        if i_out > 0.0 and v_out < self.v_target - 1e-9:
            raise ElectricalError(
                f"{self.name}: regulation failed, output {v_out:.3f} V "
                f"below target {self.v_target:.3f} V at {i_out:.4g} A"
            )
        v_out = self.v_target  # PFM holds the target between bursts
        # Under PFM regulation the whole headroom above the target is
        # dissipated in the output impedance (bursts at f_sw, idle between),
        # so conduction loss is headroom * current, not i^2 R at the clamp
        # frequency.  This keeps P_in == P_out + sum(losses) exactly.
        p_conduction = (self.ratio * v_in - self.v_target) * i_out
        p_gate = f_sw * self.g_total * self.tau_gate * (v_in * v_in)
        p_bottom = (f_sw * self.alpha_bottom_plate * self.c_total
                    * (v_in * v_in))
        p_controller = v_in * self.i_controller
        i_in = (
            self.ratio * i_out
            + (p_gate + p_bottom) / v_in
            + self.i_controller
        )
        return OperatingPoint(
            v_in=v_in,
            v_out=v_out,
            i_in=i_in,
            i_out=i_out,
            losses={
                "conduction": p_conduction,
                "gate-drive": p_gate,
                "bottom-plate": p_bottom,
                "controller": p_controller,
            },
        )

    def off_state_current(self, v_in: float) -> float:
        return self.i_leak_off

    # -- design helpers -----------------------------------------------------------

    def efficiency_at(self, v_in: float, i_out: float) -> float:
        """Convenience: efficiency at an operating point."""
        return self.solve(v_in, i_out).efficiency

    def optimum_load(self, v_in: float) -> float:
        """Load current at which efficiency peaks (numerically located).

        Efficiency falls at light load (controller + floor switching
        dominate) and at heavy load (conduction dominates); the peak sits
        between.  Golden-section search over log-load.
        """
        i_max = self.max_load_current(v_in) * 0.999
        if i_max <= 0.0:
            raise ElectricalError(f"{self.name}: cannot deliver load at {v_in} V")
        lo, hi = math.log(i_max * 1e-6), math.log(i_max)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        for _ in range(80):
            if self.efficiency_at(v_in, math.exp(c)) > self.efficiency_at(
                v_in, math.exp(d)
            ):
                b = d
            else:
                a = c
            c = b - phi * (b - a)
            d = a + phi * (b - a)
        return math.exp((a + b) / 2.0)


def design_for_load(
    name: str,
    network: SCNetwork,
    v_in: float,
    v_target: float,
    i_load_max: float,
    f_max: float = 10e6,
    margin: float = 2.0,
    tau_gate: float = 10e-12,
    alpha_bottom_plate: float = 0.05,
    i_controller: float = 0.5e-6,
    i_leak_off: float = 0.0,
    fsl_fraction: float = 0.5,
) -> SwitchedCapacitorConverter:
    """Size an SC converter's device budgets for a maximum load.

    Chooses ``c_total`` and ``g_total`` so that at ``f_max`` the converter
    can deliver ``margin * i_load_max`` while regulating ``v_target``:
    the required total output impedance is split between the FSL floor
    (``fsl_fraction`` of the budget, set by switch conductance) and the
    SSL part (set by capacitance at ``f_max``).  This mirrors the
    size-optimised devices of the PicoCube power IC [14].
    """
    if not 0.0 < fsl_fraction < 1.0:
        raise ConfigurationError("fsl_fraction must be in (0, 1)")
    if i_load_max <= 0.0 or margin <= 0.0:
        raise ConfigurationError("i_load_max and margin must be positive")
    analysis = network.analyze_cached()
    v_ideal = analysis.ratio * v_in
    if v_ideal <= v_target:
        raise ConfigurationError(
            f"{name}: ratio {analysis.ratio:.3f} cannot make {v_target} V "
            f"from {v_in} V"
        )
    r_budget = (v_ideal - v_target) / (margin * i_load_max)
    r_fsl = r_budget * fsl_fraction
    r_ssl = math.sqrt(r_budget**2 - r_fsl**2)
    g_total = 2.0 * analysis.switch_multiplier_sum**2 / r_fsl
    c_total = analysis.cap_multiplier_sum**2 / (r_ssl * f_max)
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
        i_leak_off=i_leak_off,
    )
