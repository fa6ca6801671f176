"""The benchmark workloads: inputs from a seed, one operation, checks.

Each workload builds its inputs from ``--seed`` alone, runs one closed-loop
operation at a time in this process, and checks the outputs it got back:
invariants that hold for any seed, plus a float-hex fingerprint pinned in
``meta.json`` for the default seed.  Program code is reached through
module attributes (``energy_audit.audit_node``), so the tracer's patches
apply to the benchmark's own calls too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from typing import Any, List, Optional

from repro import campaigns
from repro.core import builder, energy_audit
from repro.runner import store as result_store
from repro.sim import fleet_engine

#: The paper's single-digit microwatt band for a node's average power.
POWER_BAND_W = (1e-6, 10e-6)


def canonical(value: Any) -> Any:
    """JSON-able form of a result with every float as its exact hex.

    Written here rather than reusing the result store's content hash, so
    that the pinned fingerprints change only when a simulated result does.
    """
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in sorted(value.items())}
    if dataclasses.is_dataclass(value):
        return {
            "type": type(value).__name__,
            "fields": canonical(dataclasses.asdict(value)),
        }
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def fingerprint(value: Any) -> str:
    """Short sha256 of the canonical float-hex form."""
    text = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _audit_problems(audit, expect_cycles: int) -> List[str]:
    problems = []
    low, high = POWER_BAND_W
    if not low <= audit.average_power_w < high:
        problems.append(
            f"average power {audit.average_power_w!r} W outside [{low}, {high})"
        )
    if audit.cycles != expect_cycles:
        problems.append(f"{audit.cycles} cycles, expected {expect_cycles}")
    if audit.brownouts or audit.resets:
        problems.append("steady node browned out or reset")
    total = sum(audit.energy_by_channel_j.values())
    if total / audit.duration_s != audit.average_power_w:
        problems.append("channel energies do not sum to the average power")
    return problems


class Workload:
    """One named workload; subclasses fill in the operation and checks."""

    name = ""

    def __init__(self, params: dict, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def warm(self) -> None:
        """Small untimed run that does the first-use lazy work."""

    def run(self) -> Any:
        """One operation; returns what :meth:`check` inspects."""
        raise NotImplementedError

    def cycles(self, outcome: Any) -> int:
        """Node wake cycles the operation completed (replayed ones count)."""
        raise NotImplementedError

    def check(self, outcome: Any) -> List[str]:
        """Seed-independent invariants; an empty list means correct."""
        raise NotImplementedError

    def pinned(self, outcome: Any) -> Any:
        """The simulated result whose fingerprint is pinned."""
        raise NotImplementedError

    def verify(self, outcome: Any, expected: Optional[str]) -> List[str]:
        """:meth:`check`, plus the pinned fingerprint when one applies."""
        problems = list(self.check(outcome))
        if expected is not None:
            got = fingerprint(self.pinned(outcome))
            if got != expected:
                problems.append(
                    f"fingerprint {got} differs from the pinned {expected}"
                )
        return problems

    def cleanup(self, outcome: Any) -> None:
        """Release what an operation left on disk."""


class EnduranceFF(Workload):
    name = "endurance-ff"

    def __init__(self, params, seed, scratch):
        super().__init__(params, seed, scratch)
        self.node_id = 1 + seed % 255
        self.duration_s = float(params["days"]) * 86400.0

    def _simulate(self, duration_s: float):
        node = builder.build_steady_tpms_node(
            node_id=self.node_id, fast_forward=True
        )
        node.run(duration_s)
        return node, energy_audit.audit_node(node)

    def warm(self):
        self._simulate(600.0)

    def run(self):
        return self._simulate(self.duration_s)

    def cycles(self, outcome):
        return outcome[0].cycles_completed

    def check(self, outcome):
        node, audit = outcome
        expect = int(self.duration_s // node.sensor.wake_period_s) - 1
        problems = _audit_problems(audit, expect)
        ff = node.fast_forward
        if ff is None or not ff.leaps:
            problems.append("fast-forward never leapt over the horizon")
        elif ff.cycles_replayed != sum(leap.cycles_replayed for leap in ff.leaps):
            problems.append("replayed cycles disagree with the leap records")
        return problems

    def pinned(self, outcome):
        return outcome[1]


class FleetCohort(Workload):
    name = "fleet-cohort"

    def __init__(self, params, seed, scratch):
        super().__init__(params, seed, scratch)
        self.scenario = fleet_engine.FleetScenario(
            node_count=int(params["node_count"]),
            duration_s=float(params["duration_s"]),
            phase_seed=seed,
        )
        self._packets_checked = False

    def warm(self):
        # A small fleet compiles and verifies the same batch kernels.
        fleet_engine.run_fleet(dataclasses.replace(self.scenario, node_count=64))

    def run(self):
        return fleet_engine.run_fleet(self.scenario)

    def cycles(self, outcome):
        return outcome.stats.transmitted

    def check(self, outcome):
        problems = []
        stats = outcome.stats
        if outcome.engine_used != "cohort":
            problems.append(
                f"fleet fell back to {outcome.engine_used}: "
                f"{outcome.fallback_reason}"
            )
        if stats.retries or stats.lost_to_noise:
            problems.append("retries or noise losses without a retry policy")
        if not 0 < stats.collided <= stats.transmitted:
            problems.append(f"implausible channel stats {stats}")
        n = self.scenario.node_count
        # Every node wakes once per 6 s beacon period after its phase; the
        # first and the last period may each hold no complete cycle.
        wakes = int(self.scenario.duration_s // 6.0)
        if not n * (wakes - 2) <= stats.transmitted <= n * wakes:
            problems.append(f"{stats.transmitted} packets from {n} nodes")
        if not self._packets_checked:
            # Once per run: the stats agree with every node's own count,
            # and one node's energy audit sits in the paper's band.
            sent = sum(outcome.packets_sent(i) for i in range(n))
            if sent != stats.transmitted:
                problems.append(f"{sent} packets sent, {stats.transmitted} on air")
            power = outcome.audit(0).average_power_w
            if not POWER_BAND_W[0] <= power < POWER_BAND_W[1]:
                problems.append(f"node 0 average power {power!r} W out of band")
            self._packets_checked = True
        return problems

    def pinned(self, outcome):
        return [outcome.stats, outcome.engine_used]


@dataclasses.dataclass
class ChaosResult:
    cold: list
    both: list
    cold_stats: Any
    warm_stats: Any
    root: str
    leftover_checkpoints: List[str]


class ChaosStore(Workload):
    name = "chaos-store"

    def __init__(self, params, seed, scratch):
        super().__init__(params, seed, scratch)
        self.trials = int(params["trials"])
        self.duration_s = float(params["duration_s"])
        self.checkpoint_every_s = float(params["checkpoint_every_s"])
        self.profile = params["profile"]

    def _campaign(self, trials: int, root: str, duration_s: float):
        store = result_store.ResultStore(os.path.join(root, "store"))
        outcomes, _stats = campaigns.chaos_campaign(
            trials=trials,
            duration_s=duration_s,
            profile=self.profile,
            base_seed=self.seed,
            workers=1,
            store=store,
            checkpoint_every=self.checkpoint_every_s,
            checkpoint_dir=os.path.join(root, "checkpoints"),
        )
        return outcomes, store.stats

    def warm(self):
        root = tempfile.mkdtemp(prefix="warm-", dir=self.scratch)
        try:
            self._campaign(1, root, 600.0)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def run(self):
        root = tempfile.mkdtemp(prefix="chaos-", dir=self.scratch)
        cold, cold_stats = self._campaign(self.trials, root, self.duration_s)
        both, warm_stats = self._campaign(2 * self.trials, root, self.duration_s)
        checkpoints = os.path.join(root, "checkpoints")
        leftover = os.listdir(checkpoints) if os.path.isdir(checkpoints) else []
        return ChaosResult(cold, both, cold_stats, warm_stats, root, leftover)

    def cycles(self, outcome):
        return sum(o.cycles for o in outcome.cold) + sum(
            o.cycles for o in outcome.both
        )

    def check(self, outcome):
        n = self.trials
        problems = []
        if canonical(outcome.both[:n]) != canonical(outcome.cold):
            problems.append("warm store outcomes differ from the cold ones")
        cold, warm = outcome.cold_stats, outcome.warm_stats
        if (cold.hits, cold.misses) != (0, n):
            problems.append(f"cold campaign store stats {cold}")
        if (warm.hits, warm.misses, warm.disk_hits) != (n, n, n):
            problems.append(f"warm campaign store stats {warm}")
        if outcome.leftover_checkpoints:
            problems.append(f"checkpoints left behind: {outcome.leftover_checkpoints}")
        for trial in outcome.both:
            if not 0.0 <= trial.average_power_w < POWER_BAND_W[1]:
                problems.append(f"trial {trial.seed} power {trial.average_power_w!r} W")
            if not 0.0 <= trial.final_soc <= 1.0 or trial.cycles <= 0:
                problems.append(f"trial {trial.seed} implausible outcome {trial}")
        return problems

    def pinned(self, outcome):
        return outcome.both

    def cleanup(self, outcome):
        shutil.rmtree(outcome.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (EnduranceFF, FleetCohort, ChaosStore)}
