"""Power management substrate: converters, rectifiers, references, switches.

This package models the PicoCube's entire power train, both the COTS
version of paper §4 (charge pump, LDO, shunt regulator, discrete switches)
and the integrated switched-capacitor power IC of §7.1 (Seeman-Sanders
analysis, synchronous rectifier, references).
"""
