"""Sensor substrate: SP12 TPMS, SCA3000 accelerometer, environments."""
