"""Parallel experiment-runner substrate.

Fan sweep/Monte-Carlo task grids out over a process pool with
deterministic per-task seeding, chunked dispatch, structured failure
capture, a content-addressed result store, and throughput metrics.  See
``docs/RUNNER.md`` for the API and the determinism contract.

This package is infrastructure like ``sim/``: it knows nothing about the
node models.  Experiment-specific task functions live in
:mod:`repro.campaigns`.
"""

from .metrics import CampaignStats
from .pool import (
    MonteCarlo,
    MonteCarloResult,
    Sweep,
    SweepResult,
    TaskError,
    TaskRecord,
    default_workers,
)
from .seeding import derive_seed, derive_seeds
from .store import (
    RESULT_CODE_VERSION,
    ResultStore,
    StoreStats,
    stable_token,
)

__all__ = [
    "CampaignStats",
    "MonteCarlo",
    "MonteCarloResult",
    "RESULT_CODE_VERSION",
    "ResultStore",
    "StoreStats",
    "Sweep",
    "SweepResult",
    "TaskError",
    "TaskRecord",
    "default_workers",
    "derive_seed",
    "derive_seeds",
    "stable_token",
]
