"""The integrated power-interface IC of paper §7.1 (Fig 9).

One 0.13 µm CMOS die (~2 mm on a side, ST Microelectronics) that replaces
the COTS switch board and supplies:

* a **synchronous rectifier** interfacing the electromagnetic shaker to the
  battery;
* a **1:2 switched-capacitor converter** making ~2.1 V for the
  microcontroller and sensors from the nominal 1.2 V cell;
* a **3:2 switched-capacitor converter** making ~0.8 V, post-regulated by a
  **linear regulator** to a clean 0.65 V for the radio RF section;
* a self-biased **18 nA current reference** and an ultralow-power
  **sampled bandgap**.

Measured leakage of the real chip was ~6.5 µA, "partially attributable to
the pad ring"; the model's default budget reproduces that number and its
breakdown is exposed for the E6 experiment.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..errors import ConfigurationError
from .base import OperatingPoint
from .linear_regulator import LinearRegulator
from .rectifier import SynchronousRectifier
from .references import CurrentReference, SampledBandgap
from .sc_converter import SwitchedCapacitorConverter, design_for_load
from .topologies import doubler, step_down_3_to_2


@dataclasses.dataclass(frozen=True)
class ConverterICConfig:
    """Electrical configuration of the power IC.

    Defaults follow the paper: 1.2 V nominal battery, 2.1 V logic rail,
    0.65 V RF rail via a ~0.7 V intermediate, >84 % converter efficiency,
    ~6.5 µA total standing current.
    """

    v_battery_nominal: float = 1.2
    v_battery_min: float = 1.1
    v_mcu_rail: float = 2.1
    v_radio_intermediate: float = 0.71
    v_radio_rail: float = 0.65
    i_mcu_max: float = 2e-3
    i_radio_max: float = 6e-3
    f_max: float = 20e6
    tau_gate: float = 1.5e-12
    # High-density (MIM / deep-trench) caps in the ST 0.13 um process have
    # very low bottom-plate parasitics; this is the *effective* fraction
    # including the reduced plate swing.
    alpha_bottom_plate: float = 0.0015
    i_pad_ring_leak: float = 5.9e-6
    i_converter_controller: float = 0.35e-6
    rectifier_r_on: float = 2.0
    rectifier_comparator_power: float = 1.0e-6
    ldo_dropout: float = 0.04
    ldo_i_ground: float = 0.5e-6
    design_margin: float = 1.3
    fsl_fraction: float = 0.4

    def __post_init__(self) -> None:
        if self.v_radio_rail + self.ldo_dropout > self.v_radio_intermediate:
            raise ConfigurationError(
                "radio intermediate voltage leaves no LDO headroom: "
                f"{self.v_radio_intermediate} < "
                f"{self.v_radio_rail} + {self.ldo_dropout}"
            )
        if self.v_battery_min > self.v_battery_nominal:
            raise ConfigurationError("v_battery_min exceeds nominal")
        if self.v_mcu_rail >= 2.0 * self.v_battery_min:
            raise ConfigurationError(
                "1:2 converter cannot regulate the MCU rail at minimum battery"
            )


class ConverterIC:
    """The composed power-interface IC."""

    def __init__(self, config: Optional[ConverterICConfig] = None) -> None:
        self.config = config or ConverterICConfig()
        cfg = self.config
        self.rectifier = SynchronousRectifier(
            "ic-sync-rectifier",
            r_on=cfg.rectifier_r_on,
            comparator_power=cfg.rectifier_comparator_power,
        )
        self.mcu_converter: SwitchedCapacitorConverter = design_for_load(
            "ic-sc-1to2",
            doubler(),
            v_in=cfg.v_battery_min,
            v_target=cfg.v_mcu_rail,
            i_load_max=cfg.i_mcu_max,
            f_max=cfg.f_max,
            margin=cfg.design_margin,
            fsl_fraction=cfg.fsl_fraction,
            tau_gate=cfg.tau_gate,
            alpha_bottom_plate=cfg.alpha_bottom_plate,
            i_controller=cfg.i_converter_controller,
        )
        self.radio_converter: SwitchedCapacitorConverter = design_for_load(
            "ic-sc-3to2",
            step_down_3_to_2(),
            v_in=cfg.v_battery_min,
            v_target=cfg.v_radio_intermediate,
            i_load_max=cfg.i_radio_max,
            f_max=cfg.f_max,
            margin=cfg.design_margin,
            fsl_fraction=cfg.fsl_fraction,
            tau_gate=cfg.tau_gate,
            alpha_bottom_plate=cfg.alpha_bottom_plate,
            i_controller=cfg.i_converter_controller,
            i_leak_off=10e-9,
        )
        self.radio_ldo = LinearRegulator(
            "ic-radio-ldo",
            v_out=cfg.v_radio_rail,
            dropout=cfg.ldo_dropout,
            i_ground=cfg.ldo_i_ground,
            i_shutdown=5e-9,
            i_max=cfg.i_radio_max,
        )
        self.current_reference = CurrentReference()
        self.bandgap = SampledBandgap()
        # The radio chain is gated off by default; the MCU rail is always on.
        self.radio_converter.disable()
        self.radio_ldo.disable()

    # -- rails ----------------------------------------------------------------

    def mcu_rail(self, v_battery: float, i_load: float) -> OperatingPoint:
        """Solve the always-on 2.1 V microcontroller/sensor rail."""
        return self.mcu_converter.solve(v_battery, i_load)

    def radio_rail(self, v_battery: float, i_load: float) -> OperatingPoint:
        """Solve the gated 0.65 V radio RF rail (3:2 SC then LDO).

        Returns the battery-side operating point of the whole chain with
        the cascade's losses merged.
        """
        ldo_point = self.radio_ldo.solve(self.config.v_radio_intermediate, i_load)
        sc_point = self.radio_converter.solve(v_battery, ldo_point.i_in)
        losses = dict(sc_point.losses)
        for key, value in ldo_point.losses.items():
            losses[f"ldo-{key}"] = value
        return OperatingPoint(
            v_in=v_battery,
            v_out=ldo_point.v_out,
            i_in=sc_point.i_in,
            i_out=i_load,
            losses=losses,
        )

    def enable_radio_rail(self) -> None:
        """Power up the 3:2 converter and LDO ahead of a transmission."""
        self.radio_converter.enable()
        self.radio_ldo.enable()

    def disable_radio_rail(self) -> None:
        """Gate the radio chain off (only leakage remains)."""
        self.radio_converter.disable()
        self.radio_ldo.disable()

    @property
    def radio_rail_enabled(self) -> bool:
        """True while the radio supply chain is powered."""
        return self.radio_converter.enabled

    def radio_rail_noise(
        self, v_battery: float, i_load: float, c_out: float = 100e-9
    ) -> Dict[str, float]:
        """Ripple chain for the RF rail: SC sawtooth -> LDO PSRR -> residue.

        "A linear regulator is used as a post-regulator to more precisely
        set the radio voltage to 0.65 V and to smooth the ripple from the
        switched-capacitor converter" (paper §7.1).  Returns the raw SC
        ripple, the LDO's attenuation, and the residual the PA sees.
        """
        ldo_in = self.radio_ldo.solve(self.config.v_radio_intermediate, i_load)
        raw = self.radio_converter.output_ripple(v_battery, ldo_in.i_in, c_out)
        residual = self.radio_ldo.output_ripple(raw)
        return {
            "sc_ripple_pp": raw,
            "psrr_db": self.radio_ldo.psrr_db,
            "residual_pp": residual,
        }

    # -- standing current --------------------------------------------------------

    def quiescent_breakdown(
        self, v_battery: Optional[float] = None
    ) -> Dict[str, float]:
        """Standing battery current by source, amperes (radio rail gated)."""
        v_batt = v_battery or self.config.v_battery_nominal
        mcu_idle = self.mcu_converter.solve(v_batt, 0.0)
        return {
            "pad-ring": self.config.i_pad_ring_leak,
            "current-reference": self.current_reference.supply_current(),
            "sampled-bandgap": self.bandgap.average_current(),
            "sc-1to2-idle": mcu_idle.i_in,
            "sc-3to2-off-leak": self.radio_converter.off_state_current(v_batt),
            "ldo-off-leak": self.radio_ldo.off_state_current(
                self.config.v_radio_intermediate
            ),
        }

    def quiescent_current(self, v_battery: Optional[float] = None) -> float:
        """Total standing battery current, amperes (paper: ~6.5 µA)."""
        return sum(self.quiescent_breakdown(v_battery).values())

    def quiescent_power(self, v_battery: Optional[float] = None) -> float:
        """Standing power from the battery, watts."""
        v_batt = v_battery or self.config.v_battery_nominal
        return v_batt * self.quiescent_current(v_batt)
