"""Golden tests pinning the paper's headline numbers.

The three claims the reproduction stands on (abstract + §4/§5):

* the TPMS node averages ~6 uW;
* the switched-capacitor converters exceed 84% efficiency at load;
* the synchronous rectifier reaches ~96% of an ideal rectifier's
  delivery at its ~450 uW operating point.

These are regression pins, not re-derivations: the bands are tight
enough that any drift in the electrical models trips them, wide enough
to survive benign refactors.
"""

import numpy as np

from repro.core.builder import build_tpms_node
from repro.power.converter_ic import ConverterIC
from repro.power.rectifier import SynchronousRectifier, relative_to_ideal


def test_tpms_node_average_power_is_about_6_uw():
    node = build_tpms_node()
    node.run(3600.0)
    power = node.average_power()
    assert 5e-6 < power < 8e-6, f"average power {power * 1e6:.2f} uW"
    # The pinned value itself, to one part in a thousand.
    assert abs(power - 6.4536e-6) < 0.01e-6


def test_sc_converter_efficiency_exceeds_84_percent():
    ic = ConverterIC()
    efficiency = ic.mcu_converter.efficiency_at(1.2, 500e-6)
    assert efficiency > 0.84
    assert efficiency < 1.0


def test_synchronous_rectifier_near_ideal_at_450_uw():
    rectifier = SynchronousRectifier()
    cycles, freq = 20, 100.0
    t = np.linspace(0.0, cycles / freq, cycles * 2000 + 1)
    v_oc = 1.9 * np.sin(2.0 * np.pi * freq * t)
    result = rectifier.rectify(t, v_oc, r_source=500.0, v_dc=1.35)
    # The operating point is the paper's ~450 uW input...
    assert 350e-6 < result.power_in < 550e-6
    # ...where delivery must be >= 96% of an ideal rectifier's.
    assert relative_to_ideal(result) >= 0.955
