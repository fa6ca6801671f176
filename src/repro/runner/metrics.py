"""Throughput metrics for simulation campaigns.

The ROADMAP's target is "as fast as the hardware allows"; these metrics
are how a campaign proves it.  :class:`CampaignStats` reports tasks/s,
the parallel speedup actually achieved (task-seconds per wall-second),
the wall-clock vs simulated-time ratio when tasks report how much
simulated time they covered, and the result-cache hit rate.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class CampaignStats:
    """Outcome metrics of one campaign run."""

    tasks_total: int
    tasks_ok: int
    tasks_failed: int
    cache_hits: int
    workers: int
    chunk_size: int
    wall_s: float
    task_s: float
    """Sum of per-task execution times (serial-equivalent work)."""

    simulated_s: float = 0.0
    """Total simulated time covered, when tasks report it (else 0)."""

    @property
    def tasks_per_s(self) -> float:
        """Campaign throughput in completed tasks per wall-clock second."""
        return self.tasks_total / self.wall_s if self.wall_s > 0.0 else 0.0

    @property
    def parallel_speedup(self) -> float:
        """Task-seconds executed per wall-second (1.0 = serial)."""
        return self.task_s / self.wall_s if self.wall_s > 0.0 else 0.0

    @property
    def sim_time_speedup(self) -> float:
        """Simulated seconds per wall second (0 when not reported)."""
        return self.simulated_s / self.wall_s if self.wall_s > 0.0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of tasks answered from the result cache."""
        return self.cache_hits / self.tasks_total if self.tasks_total else 0.0

    def summary(self) -> str:
        """One-line human summary for benchmark/example output."""
        parts = [
            f"{self.tasks_total} tasks",
            f"{self.workers} worker{'s' if self.workers != 1 else ''}",
            f"{self.wall_s:.2f} s wall",
            f"{self.tasks_per_s:.1f} tasks/s",
            f"{self.parallel_speedup:.2f}x parallel",
        ]
        if self.simulated_s > 0.0:
            parts.append(f"{self.sim_time_speedup:.0f}x real time")
        if self.cache_hits:
            parts.append(f"cache {self.cache_hit_rate:.0%}")
        if self.tasks_failed:
            parts.append(f"{self.tasks_failed} FAILED")
        return ", ".join(parts)
