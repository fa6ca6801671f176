"""The chaos Monte Carlo: pool-parallel, bit-identical, coherent stats."""

import math

import pytest

from repro.campaigns import CHAOS_PROFILES, chaos_campaign, chaos_task
from repro.errors import ConfigurationError, SimulationError
from repro.runner.pool import MonteCarlo
from repro.runner.seeding import derive_seed
from repro.runner.store import ResultStore
from repro.sim import checkpoint as cp

TRIALS = 3
DURATION_S = 1800.0


def test_unknown_profile_rejected():
    with pytest.raises(ConfigurationError):
        chaos_task((600.0, "apocalypse"), seed=1)


def test_profiles_cover_mild_and_harsh():
    assert set(CHAOS_PROFILES) == {"mild", "harsh"}


def test_campaign_bit_identical_across_worker_counts():
    serial, _ = chaos_campaign(
        trials=TRIALS, duration_s=DURATION_S, profile="harsh", workers=1
    )
    pooled, _ = chaos_campaign(
        trials=TRIALS, duration_s=DURATION_S, profile="harsh", workers=4
    )
    assert serial == pooled


def test_campaign_seeds_differ_per_trial():
    outcomes, _ = chaos_campaign(
        trials=TRIALS, duration_s=DURATION_S, profile="mild", workers=1
    )
    seeds = [out.seed for out in outcomes]
    assert len(set(seeds)) == TRIALS


def test_campaign_stats_account_for_every_trial():
    outcomes, stats = chaos_campaign(
        trials=TRIALS, duration_s=DURATION_S, profile="mild", workers=2
    )
    assert stats.tasks_total == TRIALS
    assert stats.tasks_ok == TRIALS
    assert stats.tasks_failed == 0
    assert len(outcomes) == TRIALS


def test_outcomes_are_internally_coherent():
    outcomes, _ = chaos_campaign(
        trials=TRIALS, duration_s=DURATION_S, profile="harsh", workers=1
    )
    for out in outcomes:
        assert out.cycles >= 0
        assert out.packets_delivered + out.packets_corrupted >= out.cycles
        assert 0.0 <= out.outage_s <= DURATION_S
        assert 0.0 <= out.final_soc <= 1.0
        assert out.average_power_w > 0.0
        assert out.survived == (out.brownouts == 0)


def test_pooled_durable_campaign_resumes_an_abandoned_trial(tmp_path):
    """A killed durable campaign leaves a mid-trial checkpoint; the
    restarted pooled campaign resumes it bit-identically, removes it,
    and a repeat call is answered from the result store."""
    seed0 = derive_seed(77, 0, "harsh")
    params = {"duration_s": DURATION_S, "profile": "harsh", "seed": seed0}
    node, injector = cp.build_scenario("chaos", params)
    grabbed = []
    node.run_until_time(
        660.0, checkpoint_every=600.0,
        on_checkpoint=lambda paused: grabbed.append(cp.save_checkpoint(
            paused, injector,
            scenario={"kind": "chaos", "params": params},
            meta={"end_time": DURATION_S},
        )),
    )
    ckpt_dir = tmp_path / "checkpoints"
    cp.write_checkpoint(
        grabbed[-1],
        str(ckpt_dir / f"chaos-harsh-{DURATION_S:g}-{seed0}.ckpt"),
    )

    plain, _ = chaos_campaign(
        trials=2, duration_s=DURATION_S, profile="harsh", base_seed=77,
        workers=1,
    )
    store = ResultStore(str(tmp_path / "store"))
    durable = dict(
        trials=2, duration_s=DURATION_S, profile="harsh", base_seed=77,
        workers=2, store=store, checkpoint_every=600.0,
        checkpoint_dir=str(ckpt_dir),
    )
    resumed, _ = chaos_campaign(**durable)
    assert resumed == plain
    assert list(ckpt_dir.iterdir()) == []

    again, _ = chaos_campaign(**durable)
    assert again == plain
    assert store.stats.hits >= 2


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(profile="nope"), ConfigurationError,
     "unknown chaos profile 'nope'"),
    (dict(duration_s=0.0), ConfigurationError,
     "duration_s must be finite and > 0, got 0.0"),
    (dict(duration_s=math.nan), ConfigurationError,
     "duration_s must be finite and > 0, got nan"),
    (dict(duration_s=math.inf), ConfigurationError,
     "duration_s must be finite and > 0, got inf"),
    (dict(checkpoint_every=math.nan, checkpoint_dir="ckpt"),
     SimulationError, "checkpoint_every must be finite and > 0, got nan"),
    (dict(checkpoint_every=300.0), ConfigurationError,
     "checkpoint_every needs a checkpoint_dir to write to"),
], ids=["profile", "zero-duration", "nan-duration", "inf-duration",
        "nan-checkpoint-every", "checkpoint-every-without-dir"])
def test_campaign_rejects_bad_arguments_before_the_pool(
        monkeypatch, tmp_path, kwargs, error, message):
    def no_pool(*args, **kwargs):
        raise AssertionError("the pool started")

    monkeypatch.setattr(MonteCarlo, "run", no_pool)
    args = dict(trials=2, duration_s=600.0, profile="mild", workers=1)
    args.update(kwargs)
    if "checkpoint_dir" in args:
        args["checkpoint_dir"] = str(tmp_path / args["checkpoint_dir"])
    with pytest.raises(error) as raised:
        chaos_campaign(**args)
    assert str(raised.value) == message
    if "checkpoint_dir" in kwargs or "checkpoint_every" not in kwargs:
        # The trial raises the same error itself.
        params = (args["duration_s"], args["profile"])
        if "checkpoint_dir" in args:
            params += (args["checkpoint_every"], args["checkpoint_dir"])
        with pytest.raises(error) as in_trial:
            chaos_task(params, seed=1)
        assert str(in_trial.value) == message
