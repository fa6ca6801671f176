"""PicoCube reproduction: a 1 cm^3 energy-harvesting sensor node, simulated.

Reproduction of Chee et al., "PicoCube: A 1cm3 Sensor Node Powered by
Harvested Energy" (DAC 2008).  The package models the complete node —
power train (COTS and integrated switched-capacitor IC), NiMH storage,
harvesters, MSP430, FBAR OOK radio, sensors, packaging — on an exact
discrete-event electrical simulator.

The package ``__init__`` files hold only docstrings: import each name
from the module that defines it.

Quick start::

    from repro.core.builder import build_tpms_node
    from repro.core.energy_audit import audit_node

    node = build_tpms_node()
    node.run(3600.0)
    print(audit_node(node).format_table())
"""

__version__ = "1.0.0"
