"""Checkpoint layer: bit-identity, schema policing, disk envelope.

The headline contract: for every registered scenario — faults, brownout
recovery, harvesting, fast-forward — a run that is killed at an
arbitrary checkpoint boundary and resumed from the saved file finishes
**bit-identical** (float-hex fingerprints) to the run that was never
interrupted.  Checkpointing must also be a pure observation: a run that
saves checkpoints ends in exactly the state of one that doesn't.
"""

import dataclasses
import math

import pytest

from repro.campaigns import chaos_task
from repro.core.builder import build_steady_tpms_node
from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.errors import CheckpointError, ConfigurationError, SimulationError
from repro.faults.events import HarvesterDropout
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.sim import checkpoint as cp
from repro.storage.nimh import NiMHCell

CHAOS_PARAMS = {"duration_s": 1200.0, "profile": "harsh", "seed": 31}


def run_plain(duration_s):
    node, injector = cp.build_scenario("chaos", CHAOS_PARAMS)
    node.run_until_time(duration_s)
    return cp.node_fingerprint(node)


def run_with_checkpoints(duration_s, every_s):
    node, injector = cp.build_scenario("chaos", CHAOS_PARAMS)
    saved = []
    node.run_until_time(
        duration_s,
        checkpoint_every=every_s,
        on_checkpoint=lambda paused: saved.append(
            cp.save_checkpoint(
                paused, injector,
                scenario={"kind": "chaos", "params": CHAOS_PARAMS},
                meta={"end_time": duration_s},
            )
        ),
    )
    return cp.node_fingerprint(node), saved


# ---------------------------------------------------------------------------
# bit-identity
# ---------------------------------------------------------------------------


def test_checkpointing_is_pure_observation():
    duration = CHAOS_PARAMS["duration_s"]
    plain = run_plain(duration)
    observed, saved = run_with_checkpoints(duration, every_s=180.0)
    assert observed == plain
    assert len(saved) >= 3  # the storm actually got checkpointed


def test_resume_from_every_kill_point_is_bit_identical():
    duration = CHAOS_PARAMS["duration_s"]
    plain = run_plain(duration)
    _, saved = run_with_checkpoints(duration, every_s=180.0)
    for checkpoint in saved:
        node, _ = cp.resume_run(checkpoint)
        assert cp.node_fingerprint(node) == plain


def test_resume_through_disk_envelope(tmp_path):
    duration = CHAOS_PARAMS["duration_s"]
    plain = run_plain(duration)
    _, saved = run_with_checkpoints(duration, every_s=300.0)
    path = str(tmp_path / "trial.ckpt")
    cp.write_checkpoint(saved[0], path)
    node, _ = cp.resume_run(cp.read_checkpoint(path))
    assert cp.node_fingerprint(node) == plain


def test_chaos_task_resume_after_kill_matches_uninterrupted(tmp_path):
    params = (1800.0, "harsh")
    seed = 7
    uninterrupted = chaos_task(params, seed)

    # Simulate a SIGKILL: run the durable variant manually and abandon
    # it at its second checkpoint, leaving the file behind.
    durable = (1800.0, "harsh", 300.0, str(tmp_path))
    node, injector = cp.build_scenario(
        "chaos", {"duration_s": 1800.0, "profile": "harsh", "seed": seed}
    )
    killed = []

    class Killed(Exception):
        pass

    def bail(paused):
        cp.write_checkpoint(
            cp.save_checkpoint(
                paused, injector,
                scenario={
                    "kind": "chaos",
                    "params": {
                        "duration_s": 1800.0, "profile": "harsh",
                        "seed": seed,
                    },
                },
                meta={"end_time": 1800.0},
            ),
            str(tmp_path / f"chaos-harsh-1800-{seed}.ckpt"),
        )
        killed.append(paused.engine.now)
        if len(killed) == 2:
            raise Killed()

    with pytest.raises(Killed):
        node.run_until_time(1800.0, checkpoint_every=300.0, on_checkpoint=bail)

    resumed = chaos_task(durable, seed)
    assert resumed == uninterrupted
    # Completion removed the checkpoint file.
    assert list(tmp_path.iterdir()) == []


def test_chaos_task_resumes_only_its_own_checkpoint(tmp_path, monkeypatch):
    """The file name keeps 6 significant digits of ``duration_s``, so a
    1800.0001 s trial and a 1800 s trial share one file.  A checkpoint
    whose scenario or end time is not the trial's own starts it cold."""
    seed = 7
    cold = chaos_task((1800.0, "harsh"), seed)
    own = {"duration_s": 1800.0, "profile": "harsh", "seed": seed}
    other = dict(own, duration_s=1800.0001)
    restored = []
    restore_from = cp.restore_from
    monkeypatch.setattr(
        cp, "restore_from",
        lambda saved: restored.append(saved) or restore_from(saved),
    )
    # (scenario params, meta end time, resumed?) of the planted file.
    for params, end_time, resumes in [
        (other, 1800.0001, False),
        (own, 1800.0001, False),
        (own, 1800.0, True),
    ]:
        node, injector = cp.build_scenario("chaos", params)
        grabbed = []
        node.run_until_time(
            660.0, checkpoint_every=600.0,
            on_checkpoint=lambda paused: grabbed.append(cp.save_checkpoint(
                paused, injector,
                scenario={"kind": "chaos", "params": params},
                meta={"end_time": end_time},
            )),
        )
        cp.write_checkpoint(
            grabbed[-1], str(tmp_path / f"chaos-harsh-1800-{seed}.ckpt")
        )
        restored.clear()
        resumed = chaos_task((1800.0, "harsh", 300.0, str(tmp_path)), seed)
        assert resumed == cold, (params, end_time)
        assert len(restored) == int(resumes), (params, end_time)
        assert list(tmp_path.iterdir()) == []


def test_durable_chaos_task_writes_no_checkpoint_at_its_end_time(
    tmp_path, monkeypatch
):
    """A trial deletes its checkpoint as soon as it completes, so one
    whose duration is a multiple of ``checkpoint_every`` must not write a
    last checkpoint at its own end time."""
    seed = 7
    written = []
    write_checkpoint = cp.write_checkpoint
    monkeypatch.setattr(
        cp, "write_checkpoint",
        lambda checkpoint, path: written.append(checkpoint.engine.now)
        or write_checkpoint(checkpoint, path),
    )
    durable = chaos_task((1800.0, "harsh", 300.0, str(tmp_path)), seed)
    assert durable == chaos_task((1800.0, "harsh"), seed)
    assert written and max(written) < 1800.0
    assert list(tmp_path.iterdir()) == []


def test_fast_forward_scenario_round_trips():
    def build(params):
        return build_steady_tpms_node(fast_forward=True), None

    try:
        cp.register_scenario("test-steady-ff", build)
    except ConfigurationError:
        pass  # already registered by an earlier parametrization

    duration = 6 * 3600.0
    plain = build_steady_tpms_node(fast_forward=True)
    plain.run_until_time(duration)
    expected = cp.node_fingerprint(plain)

    node = build_steady_tpms_node(fast_forward=True)
    saved = []
    node.run_until_time(
        duration, checkpoint_every=1800.0,
        on_checkpoint=lambda paused: saved.append(
            cp.save_checkpoint(
                paused, scenario={"kind": "test-steady-ff", "params": {}},
                meta={"end_time": duration},
            )
        ),
    )
    assert cp.node_fingerprint(node) == expected
    assert saved
    for checkpoint in (saved[0], saved[-1]):
        resumed, _ = cp.resume_run(checkpoint)
        assert cp.node_fingerprint(resumed) == expected


# ---------------------------------------------------------------------------
# safety rails
# ---------------------------------------------------------------------------


def test_save_refuses_mid_cycle_state():
    node, injector = cp.build_scenario("chaos", CHAOS_PARAMS)
    node._cycle_active = True
    with pytest.raises(CheckpointError):
        cp.save_checkpoint(node, injector)


def test_checkpoint_every_requires_callback():
    node = build_steady_tpms_node()
    with pytest.raises(SimulationError):
        node.run(600.0, checkpoint_every=60.0)


def test_checkpoint_every_must_be_positive():
    node = build_steady_tpms_node()
    with pytest.raises(SimulationError):
        node.run(600.0, checkpoint_every=0.0, on_checkpoint=lambda n: None)


@pytest.mark.parametrize("every", [math.nan, math.inf, -math.inf])
def test_checkpoint_every_must_be_finite(every):
    """NaN and inf would never pause the run, so no checkpoint would
    ever be written: both fail before the node starts."""
    node = build_steady_tpms_node()
    with pytest.raises(SimulationError,
                       match="checkpoint_every must be finite"):
        node.run_until_time(600.0, checkpoint_every=every,
                            on_checkpoint=lambda n: None)
    assert node.engine.now == 0.0


def test_restore_into_wrong_scenario_is_refused():
    _, saved = run_with_checkpoints(
        CHAOS_PARAMS["duration_s"], every_s=300.0
    )
    checkpoint = saved[0]
    other = dict(CHAOS_PARAMS)
    other["seed"] = CHAOS_PARAMS["seed"] + 1
    node, injector = cp.build_scenario("chaos", other)
    with pytest.raises(CheckpointError):
        cp.restore_checkpoint(checkpoint, node, injector)


def test_restore_requires_matching_injector_presence():
    _, saved = run_with_checkpoints(
        CHAOS_PARAMS["duration_s"], every_s=300.0
    )
    node, _ = cp.build_scenario("chaos", CHAOS_PARAMS)
    with pytest.raises(CheckpointError):
        cp.restore_checkpoint(saved[0], node, injector=None)


def test_restore_refuses_schema_version_skew():
    _, saved = run_with_checkpoints(
        CHAOS_PARAMS["duration_s"], every_s=300.0
    )
    checkpoint = dataclasses.replace(
        saved[0], versions={**saved[0].versions, "NodeState": 99}
    )
    node, injector = cp.build_scenario("chaos", CHAOS_PARAMS)
    with pytest.raises(CheckpointError):
        cp.restore_checkpoint(checkpoint, node, injector)


# ---------------------------------------------------------------------------
# schema registry
# ---------------------------------------------------------------------------


def test_register_state_requires_declared_integer_version():
    with pytest.raises(ConfigurationError):
        @cp.register_state
        @dataclasses.dataclass
        class Missing:  # noqa: F841 - registration is the test
            value: int

    with pytest.raises(ConfigurationError):
        @cp.register_state
        @dataclasses.dataclass
        class Boolish:  # noqa: F841
            CHECKPOINT_VERSION = True
            value: int


def test_register_state_rejects_inherited_version():
    class Base:
        CHECKPOINT_VERSION = 1

    with pytest.raises(ConfigurationError):
        @cp.register_state
        @dataclasses.dataclass
        class Derived(Base):  # noqa: F841
            value: int


def test_register_state_requires_dataclass():
    with pytest.raises(ConfigurationError):
        @cp.register_state
        class Plain:  # noqa: F841
            CHECKPOINT_VERSION = 1


def test_schema_registry_covers_the_state_containers():
    names = set(cp.registered_states())
    assert {
        "EngineState", "TimerState", "BatteryState", "ChargerState",
        "TrainState", "EnvironmentState", "NodeState", "InjectorState",
        "Checkpoint",
    } <= names
    versions = cp.schema_versions()
    assert all(isinstance(v, int) for v in versions.values())


def test_every_checkpoint_dataclass_is_a_registered_versioned_state():
    # A state dataclass left out of the registry would be restored
    # without its schema version being compared.
    registered = set(cp.registered_states().values())
    for name in dir(cp):
        obj = getattr(cp, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) \
                and obj.__module__ == cp.__name__:
            assert obj in registered, f"{name} escaped the schema registry"
            version = obj.__dict__.get("CHECKPOINT_VERSION")
            assert isinstance(version, int) and not isinstance(version, bool)


# ---------------------------------------------------------------------------
# disk envelope corruption armour
# ---------------------------------------------------------------------------


def make_checkpoint():
    node, injector = cp.build_scenario("chaos", CHAOS_PARAMS)
    # An off-wake-grid instant: no cycle can be straddling the pause.
    node.run_until_time(91.0)
    return cp.save_checkpoint(
        node, injector,
        scenario={"kind": "chaos", "params": CHAOS_PARAMS},
        meta={"end_time": CHAOS_PARAMS["duration_s"]},
    )


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointError):
        cp.read_checkpoint(str(tmp_path / "absent.ckpt"))


def test_read_rejects_flipped_body_bytes(tmp_path):
    path = str(tmp_path / "c.ckpt")
    cp.write_checkpoint(make_checkpoint(), path)
    raw = bytearray(open(path, "rb").read())
    raw[-3] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError):
        cp.read_checkpoint(path)


def test_read_rejects_wrong_magic(tmp_path):
    path = str(tmp_path / "c.ckpt")
    cp.write_checkpoint(make_checkpoint(), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw.replace(b"repro-checkpoint", b"other-artifact!!", 1))
    with pytest.raises(CheckpointError):
        cp.read_checkpoint(path)


def test_read_rejects_truncation(tmp_path):
    path = str(tmp_path / "c.ckpt")
    cp.write_checkpoint(make_checkpoint(), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        cp.read_checkpoint(path)


def test_read_rejects_headerless_junk(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        cp.read_checkpoint(str(path))


def test_write_is_atomic_no_tmp_left_behind(tmp_path):
    path = str(tmp_path / "sub" / "c.ckpt")
    cp.write_checkpoint(make_checkpoint(), path)
    names = sorted(p.name for p in (tmp_path / "sub").iterdir())
    assert names == ["c.ckpt"]


def test_build_scenario_unknown_kind():
    with pytest.raises(CheckpointError):
        cp.build_scenario("no-such-kind", {})


def test_resume_run_requires_end_time():
    checkpoint = make_checkpoint()
    bare = dataclasses.replace(checkpoint, meta={})
    with pytest.raises(CheckpointError):
        cp.resume_run(bare)


def test_register_scenario_rejects_duplicates():
    with pytest.raises(ConfigurationError):
        cp.register_scenario("chaos", lambda params: (None, None))


# ---------------------------------------------------------------------------
# brownout-heavy coverage: recovery timers across the kill point
# ---------------------------------------------------------------------------


def test_brownout_recovery_round_trips():
    def build(params):
        cell = NiMHCell(capacity_mah=0.05)
        cell.set_soc(0.05)
        config = NodeConfig(
            brownout_recovery=True,
            recovery_voltage_v=1.19,
            recovery_check_period_s=30.0,
        )
        node = PicoCube(config, battery=cell)
        node.attach_charger(lambda t: 25e-6, update_period_s=60.0)
        return node, None

    try:
        cp.register_scenario("test-brownout", build)
    except ConfigurationError:
        pass

    duration = 2 * 3600.0
    plain, _ = build({})
    plain.run_until_time(duration)
    expected = cp.node_fingerprint(plain)
    assert plain.brownout_events  # the scenario actually browns out

    node, _ = build({})
    saved = []
    node.run_until_time(
        duration, checkpoint_every=600.0,
        on_checkpoint=lambda paused: saved.append(
            cp.save_checkpoint(
                paused, scenario={"kind": "test-brownout", "params": {}},
                meta={"end_time": duration},
            )
        ),
    )
    assert cp.node_fingerprint(node) == expected
    for checkpoint in saved:
        resumed, _ = cp.resume_run(checkpoint)
        assert cp.node_fingerprint(resumed) == expected


def test_resume_from_a_mid_run_brownout_is_bit_identical():
    """Checkpoints taken while a node that had been running is browned
    out: its traces hold zeros, unlike a fresh node's, and the restart
    after the resume must record its loads as the uninterrupted run does."""

    def build(params):
        cell = NiMHCell(capacity_mah=0.1)
        cell.set_soc(0.12)
        config = NodeConfig(
            brownout_recovery=True,
            recovery_voltage_v=1.19,
            recovery_check_period_s=30.0,
        )
        node = PicoCube(config, battery=cell)
        node.attach_charger(lambda t: 10e-6, update_period_s=60.0)
        injector = FaultInjector(node, FaultSchedule(
            [HarvesterDropout(start_s=600.0, duration_s=4800.0)]
        ))
        injector.arm()
        return node, injector

    try:
        cp.register_scenario("test-dropout-brownout", build)
    except ConfigurationError:
        pass

    duration = 3 * 3600.0
    plain, _ = build({})
    plain.run_until_time(duration)
    expected = cp.node_fingerprint(plain)
    (event,) = plain.brownout_events
    assert 0.0 < event.start_s < event.end_s < duration

    node, injector = build({})
    saved = []
    node.run_until_time(
        duration, checkpoint_every=600.0,
        on_checkpoint=lambda paused: saved.append(
            cp.save_checkpoint(
                paused, injector,
                scenario={"kind": "test-dropout-brownout", "params": {}},
                meta={"end_time": duration},
            )
        ),
    )
    assert cp.node_fingerprint(node) == expected
    browned_out = [c for c in saved if c.node.browned_out]
    assert browned_out
    for checkpoint in browned_out:
        resumed, _ = cp.resume_run(checkpoint)
        assert cp.node_fingerprint(resumed) == expected
