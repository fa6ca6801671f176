"""The chaos campaign: seeded fault storms against a recovering node.

Each trial arms a :func:`repro.faults.schedule.random_schedule` storm on
a deliberately marginal node and reports a :class:`ChaosOutcome`.  The
trial task is defined at module level (the :mod:`repro.runner` pickling
contract: workers import it by qualified name), and importing this
module registers the ``"chaos"`` checkpoint scenario, so a durable trial
resumes from its checkpoint file.  The design-study sweeps live in
:mod:`repro.studies`.

Determinism contract: every outcome is a pure function of the trial
parameters and ``base_seed`` — bit-identical for any ``workers`` value —
because each trial's seed is derived from its index, never from worker
identity or completion order.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Tuple

from .core.config import NodeConfig
from .core.energy_audit import audit_node
from .core.node import PicoCube
from .errors import CheckpointError, ConfigurationError
from .faults.injector import FaultInjector
from .faults.schedule import random_schedule
from .runner.metrics import CampaignStats
from .runner.pool import MonteCarlo
from .runner.store import ResultStore
from .sim import checkpoint as simcheckpoint
from .storage.nimh import NiMHCell


CHAOS_PROFILES: Dict[str, Dict] = {
    "mild": dict(
        dropouts=1,
        dropout_span_s=(1200.0, 3000.0),
        dropout_derating=(0.1, 0.4),
        discharge_spikes=1,
        spike_multiplier=(5.0, 20.0),
        esr_drifts=1,
        esr_multiplier=(1.2, 2.0),
        degradations=1,
        degradation_loss=(1.05, 1.2),
        noise_bursts=1,
        noise_flip_probability=(0.002, 0.01),
        resets=0,
    ),
    "harsh": dict(
        dropouts=2,
        dropout_span_s=(1800.0, 7200.0),
        dropout_derating=(0.0, 0.2),
        discharge_spikes=2,
        spike_multiplier=(20.0, 80.0),
        esr_drifts=1,
        esr_multiplier=(2.0, 4.0),
        degradations=1,
        degradation_loss=(1.2, 1.6),
        noise_bursts=2,
        noise_flip_probability=(0.01, 0.05),
        resets=2,
    ),
}
"""Named :func:`repro.faults.schedule.random_schedule` parameter sets.

``mild`` is a rough week in the field (derated harvest, light noise);
``harsh`` is the storm that should force brownouts — full dropouts long
enough to drain the small chaos cell, heavy leakage spikes, and resets.
"""


@dataclasses.dataclass(frozen=True)
class ChaosOutcome:
    """One chaos trial's summary (picklable: crosses the pool boundary)."""

    seed: int
    cycles: int
    packets_delivered: int
    packets_corrupted: int
    brownouts: int
    outage_s: float
    resets: int
    final_soc: float
    average_power_w: float

    @property
    def survived(self) -> bool:
        """True when the node never browned out during the trial."""
        return self.brownouts == 0


def _chaos_node(duration_s: float) -> "PicoCube":
    """The deliberately marginal node every chaos trial runs.

    A 0.1 mAh cell at 15% charge with a 10 uA charger (the cell's own
    C/10 trickle ceiling): healthy harvest keeps it alive indefinitely,
    but a multi-hour dropout drains it into brownout — so the fault
    schedule, not the baseline design, decides the outcome.
    """
    cell = NiMHCell(capacity_mah=0.1)
    cell.set_soc(0.15)
    config = NodeConfig(
        brownout_recovery=True,
        recovery_voltage_v=1.19,
        recovery_check_period_s=30.0,
    )
    node = PicoCube(config, battery=cell)
    node.attach_charger(lambda t: 10e-6, update_period_s=60.0)
    return node


def _chaos_scenario(params: dict) -> Tuple["PicoCube", FaultInjector]:
    """Checkpoint scenario factory: the chaos trial at t=0, armed.

    Construction order matters for bit-identity: charger attach, then
    injector arm, then (at run time) the wake timer — the exact event
    sequence :func:`chaos_task` has always produced, so restored runs
    reproduce the engine's same-instant tie-breaking.
    """
    duration_s = float(params["duration_s"])
    profile = params["profile"]
    seed = int(params["seed"])
    if profile not in CHAOS_PROFILES:
        raise ConfigurationError(f"unknown chaos profile {profile!r}")
    node = _chaos_node(duration_s)
    schedule = random_schedule(seed, duration_s, **CHAOS_PROFILES[profile])
    injector = FaultInjector(node, schedule, noise_seed=seed)
    injector.arm()
    return node, injector


simcheckpoint.register_scenario("chaos", _chaos_scenario)


def chaos_task(params: Tuple, seed: int) -> ChaosOutcome:
    """One seeded fault storm against the marginal chaos node.

    ``params = (duration_s, profile)``; the schedule, the injector's
    noise stream, and the node are all pure functions of ``(params,
    seed)``, so the trial is bit-identical wherever it runs.

    Two optional trailing elements make the trial *durable*:
    ``(duration_s, profile, checkpoint_every_s, checkpoint_dir)``.  The
    trial then writes a checkpoint to a deterministic path every
    ``checkpoint_every_s`` simulated seconds, resumes from that file if
    one exists on entry (a restarted campaign), and removes it on
    completion.  Resumed outcomes are bit-identical to uninterrupted
    ones — the contract ``tests/sim/test_checkpoint.py`` pins.
    """
    duration_s, profile = float(params[0]), params[1]
    checkpoint_every = params[2] if len(params) > 2 else None
    checkpoint_dir = params[3] if len(params) > 3 else None
    scenario = {
        "kind": "chaos",
        "params": {
            "duration_s": duration_s, "profile": profile, "seed": seed
        },
    }
    node = injector = None
    path = None
    if checkpoint_dir is not None:
        path = os.path.join(
            checkpoint_dir, f"chaos-{profile}-{duration_s:g}-{seed}.ckpt"
        )
        try:
            saved = simcheckpoint.read_checkpoint(path)
            # The file name rounds duration_s to 6 digits, so a file may
            # belong to another trial: only resume this trial's own run.
            if (saved.scenario == scenario
                    and saved.meta.get("end_time") == duration_s):
                node, injector = simcheckpoint.restore_from(saved)
        except CheckpointError:
            node = None  # missing/corrupt/stale: start cold
    if node is None:
        node, injector = simcheckpoint.build_scenario(
            "chaos", scenario["params"]
        )
    on_checkpoint = None
    if path is not None and checkpoint_every is not None:
        def on_checkpoint(paused, _injector=injector, _path=path):
            simcheckpoint.write_checkpoint(
                simcheckpoint.save_checkpoint(
                    paused,
                    _injector,
                    scenario=scenario,
                    meta={"end_time": duration_s},
                ),
                _path,
            )
    node.run_until_time(
        duration_s,
        checkpoint_every=(
            float(checkpoint_every) if on_checkpoint is not None else None
        ),
        on_checkpoint=on_checkpoint,
    )
    if path is not None and os.path.exists(path):
        os.remove(path)
    audit = audit_node(node)
    return ChaosOutcome(
        seed=seed,
        cycles=node.cycles_completed,
        packets_delivered=len(node.packets_sent),
        packets_corrupted=len(node.packets_corrupted),
        brownouts=audit.brownouts,
        outage_s=audit.outage_s,
        resets=audit.resets,
        final_soc=node.battery.soc,
        average_power_w=node.average_power(),
    )


def chaos_campaign(
    trials: int = 8,
    duration_s: float = 6 * 3600.0,
    profile: str = "mild",
    base_seed: int = 2008,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    checkpoint_every: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
) -> Tuple[List[ChaosOutcome], CampaignStats]:
    """Monte-Carlo fault storms over the process pool.

    Trial ``k`` gets ``derive_seed(base_seed, k, profile)``; outcomes
    come back in trial order and are bit-identical for any ``workers``
    value — the invariant ``tests/faults/test_chaos_campaign.py`` pins.

    ``store`` keeps finished trials across runs (content-addressed);
    ``checkpoint_every``/``checkpoint_dir`` additionally make *partial*
    trials durable, so a killed campaign restarted with the same
    arguments resumes each unfinished trial mid-simulation instead of
    replaying it — with bit-identical outcomes either way.  Note that
    the store key includes the checkpoint arguments (they are task
    params), so durable and plain campaigns do not share store entries.
    """
    params: Tuple = (duration_s, profile)
    if checkpoint_dir is not None:
        params = (duration_s, profile, checkpoint_every, checkpoint_dir)
    mc = MonteCarlo(
        chaos_task,
        base_seed=base_seed,
        trials=trials,
        name=f"chaos-{profile}",
        workers=workers,
        seed_salt=profile,
        store=store,
    )
    result = mc.run(params=params)
    return result.values, result.stats
