"""Node configuration."""

from __future__ import annotations

import dataclasses
import math

from ..errors import ConfigurationError
from ..power.rail_topologies import rail_topology_names

SENSOR_KINDS = ("tpms", "accel")
FIDELITIES = ("fast", "profile")
LINE_CODES = ("nrz", "manchester")


@dataclasses.dataclass(frozen=True)
class NodeConfig:
    """Build options for a :class:`~repro.core.node.PicoCube`.

    ``fidelity`` selects transmit modelling: ``"fast"`` charges the RF
    rail at the packet's average mark density in one block (exact energy,
    few events — right for multi-hour simulations), ``"profile"`` drives
    the rail bit-run by bit-run (exact waveform — right for regenerating
    the Fig 6 power profile).

    ``line_code`` selects the over-the-air bit coding: ``"nrz"`` sends the
    frame bits raw (what the paper's numbers imply), ``"manchester"``
    chips each bit into a 01/10 pair — guaranteed transitions for the
    energy-detecting receiver's threshold tracking, at 2x air time.

    ``brownout_recovery`` arms a power-on-reset supervisor: a browned-out
    node re-enters operation once the battery's open-circuit voltage
    climbs back past ``recovery_voltage_v`` (checked every
    ``recovery_check_period_s``).  Off by default — the as-built cube has
    no supervised restart, so a brownout is terminal unless opted in.

    ``fast_forward`` arms the steady-state cycle accelerator
    (:mod:`repro.core.fastforward`): once the node provably repeats its
    duty cycle bit-for-bit, whole spans are replayed analytically instead
    of event-by-event — same results, orders of magnitude faster on
    year-scale horizons.  See ``docs/PERF.md``.
    """

    node_id: int = 1
    power_train: str = "cots"
    sensor_kind: str = "tpms"
    bit_rate: float = 330e3
    fidelity: str = "fast"
    line_code: str = "nrz"
    mcu_clock_hz: float = 1e6
    pa_sequencing_delay_s: float = 100e-6
    motion_sample_interval_s: float = 0.25
    brownout_recovery: bool = False
    recovery_voltage_v: float = 1.1
    recovery_check_period_s: float = 30.0
    fast_forward: bool = False

    def __post_init__(self) -> None:
        # NaN passes every ``< 0`` / ``<= 0`` test below, and inf runs
        # with zero air time or never lets a snapshot hash: reject both.
        for field in dataclasses.fields(self):
            if field.type in ("float", float):
                value = getattr(self, field.name)
                if not math.isfinite(value):
                    raise ConfigurationError(
                        f"{field.name} must be finite, got {value!r}"
                    )
        if not 0 <= self.node_id <= 255:
            raise ConfigurationError(f"node_id {self.node_id} outside one byte")
        if self.power_train not in rail_topology_names():
            raise ConfigurationError(
                f"power_train must be one of "
                f"{tuple(rail_topology_names())}, got "
                f"{self.power_train!r}"
            )
        if self.sensor_kind not in SENSOR_KINDS:
            raise ConfigurationError(
                f"sensor_kind must be one of {SENSOR_KINDS}, got "
                f"{self.sensor_kind!r}"
            )
        if self.fidelity not in FIDELITIES:
            raise ConfigurationError(
                f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}"
            )
        if self.line_code not in LINE_CODES:
            raise ConfigurationError(
                f"line_code must be one of {LINE_CODES}, got {self.line_code!r}"
            )
        if self.bit_rate <= 0.0 or self.mcu_clock_hz <= 0.0:
            raise ConfigurationError("bit_rate and mcu_clock_hz must be positive")
        if self.pa_sequencing_delay_s < 0.0 or self.motion_sample_interval_s <= 0.0:
            raise ConfigurationError("invalid timing configuration")
        if self.recovery_voltage_v <= 0.0:
            raise ConfigurationError("recovery_voltage_v must be positive")
        if self.recovery_check_period_s <= 0.0:
            raise ConfigurationError("recovery_check_period_s must be positive")
