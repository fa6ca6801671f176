"""Exception hierarchy for the PicoCube simulation library.

All library-raised exceptions derive from :class:`PicoCubeError` so that
callers can catch everything from this package with a single clause while
still being able to discriminate on the specific failure.
"""

from __future__ import annotations


class PicoCubeError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(PicoCubeError):
    """A component was constructed or wired with invalid parameters."""


class SimulationError(PicoCubeError):
    """The discrete-event engine was driven into an inconsistent state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped engine."""


class ElectricalError(PicoCubeError):
    """An electrical constraint was violated (voltage range, overcurrent)."""


class StorageError(PicoCubeError):
    """Energy-storage model violation (overcharge, deep discharge)."""


class PacketError(PicoCubeError):
    """Packet framing, CRC, or decoding failure."""


class GeometryError(PicoCubeError):
    """A physical-design constraint was violated (volume, placement, pads)."""


class CampaignError(PicoCubeError):
    """A parallel experiment campaign failed (worker task errors)."""


class CheckpointError(SimulationError):
    """A simulation checkpoint could not be saved, read, or restored."""
