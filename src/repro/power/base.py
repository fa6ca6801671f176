"""Common interfaces for power-conversion components.

Every converter in the PicoCube power train — charge pump, LDO, shunt
regulator, switched-capacitor converter — is modeled quasi-statically: given
an input voltage and a load current, it reports a complete
:class:`OperatingPoint` (output voltage, input current, loss breakdown,
efficiency).  The node simulator calls this at every event where a load
changes state; between events everything is constant, so this is exact.

The sign convention is loads-positive: ``i_out`` is current delivered *to*
the load, ``i_in`` is current drawn *from* the source.  Powers are positive
watts.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, Optional

from ..errors import ConfigurationError, ElectricalError
from ..units import left_sum


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """A solved steady-state operating point of a converter.

    ``losses`` itemises where the wasted power goes (conduction, switching,
    quiescent, ...), which feeds the energy-audit tables: the paper's
    central observation is that quiescent losses dominate the 6 µW budget.
    """

    v_in: float
    v_out: float
    i_in: float
    i_out: float
    losses: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def p_in(self) -> float:
        """Power drawn from the source, W."""
        return self.v_in * self.i_in

    @property
    def p_out(self) -> float:
        """Power delivered to the load, W."""
        return self.v_out * self.i_out

    @property
    def p_loss(self) -> float:
        """Total dissipated power, W."""
        return max(self.p_in - self.p_out, 0.0)

    @property
    def efficiency(self) -> float:
        """Power efficiency in [0, 1]; zero when nothing flows in."""
        if self.p_in <= 0.0:
            return 0.0
        return min(self.p_out / self.p_in, 1.0)

    def loss_total(self) -> float:
        """Sum of the itemised losses (should equal :attr:`p_loss`)."""
        return left_sum(self.losses.values())


class Converter(abc.ABC):
    """A DC-DC conversion stage with an enable control.

    Disabled converters draw only their off-state leakage and deliver no
    output — this is how the node gates the radio supplies between
    transmissions.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.enabled = True

    @abc.abstractmethod
    def solve(self, v_in: float, i_out: float) -> OperatingPoint:
        """Solve the steady-state operating point for a given load.

        Raises :class:`ElectricalError` if the converter cannot support
        the requested point (input out of range, dropout, overcurrent).
        """

    def quiescent_current(self, v_in: float) -> float:
        """Input current with zero load, A (the always-on cost)."""
        return self.solve(v_in, 0.0).i_in

    def off_state_current(self, v_in: float) -> float:
        """Input leakage while disabled, A.  Defaults to zero."""
        return 0.0

    def enable(self) -> None:
        """Turn the converter on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn the converter off (output collapses, only leakage flows)."""
        self.enabled = False

    def input_current(self, v_in: float, i_out: float) -> float:
        """Convenience: source current for a load, honouring enable state."""
        if not self.enabled:
            return self.off_state_current(v_in)
        return self.solve(v_in, i_out).i_in

    def _require_positive_load(self, i_out: float) -> None:
        if i_out < 0.0:
            raise ElectricalError(
                f"{self.name}: negative load current {i_out} A not supported"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return f"{type(self).__name__}({self.name!r}, {state})"


@dataclasses.dataclass(frozen=True)
class VoltageRange:
    """An inclusive allowed voltage window with a named owner for messages."""

    minimum: float
    maximum: float
    owner: str = ""

    def __post_init__(self) -> None:
        if self.minimum > self.maximum:
            raise ConfigurationError(
                f"{self.owner}: voltage range [{self.minimum}, {self.maximum}] reversed"
            )

    def check(self, voltage: float) -> None:
        """Raise :class:`ElectricalError` if ``voltage`` is outside range."""
        if not self.contains(voltage):
            raise ElectricalError(
                f"{self.owner}: voltage {voltage:.3f} V outside "
                f"[{self.minimum:.3f}, {self.maximum:.3f}] V"
            )

    def contains(self, voltage: float) -> bool:
        """True if ``voltage`` lies inside the window."""
        return self.minimum <= voltage <= self.maximum

    def clamp(self, voltage: float) -> float:
        """Clip ``voltage`` into the window."""
        return min(max(voltage, self.minimum), self.maximum)


def series_efficiency(*stages: float) -> float:
    """Overall efficiency of cascaded stages (product of stage efficiencies)."""
    total = 1.0
    for eta in stages:
        if not 0.0 <= eta <= 1.0:
            raise ConfigurationError(f"stage efficiency {eta} outside [0, 1]")
        total *= eta
    return total


class IdealConverter(Converter):
    """A lossless converter with a fixed output voltage — a test double.

    Useful as a reference in efficiency-comparison benchmarks and in unit
    tests that need a power train without loss modelling.
    """

    def __init__(
        self,
        name: str,
        v_out_nominal: float,
        input_range: Optional[VoltageRange] = None,
    ) -> None:
        super().__init__(name)
        if v_out_nominal <= 0.0:
            raise ConfigurationError(f"{name}: output voltage must be positive")
        self.v_out_nominal = v_out_nominal
        self.input_range = input_range

    def solve(self, v_in: float, i_out: float) -> OperatingPoint:
        self._require_positive_load(i_out)
        if self.input_range is not None:
            self.input_range.check(v_in)
        if not self.enabled:
            return OperatingPoint(v_in=v_in, v_out=0.0, i_in=0.0, i_out=0.0)
        if v_in <= 0.0:
            raise ElectricalError(f"{self.name}: input voltage {v_in} V not positive")
        i_in = self.v_out_nominal * i_out / v_in
        return OperatingPoint(
            v_in=v_in, v_out=self.v_out_nominal, i_in=i_in, i_out=i_out
        )
