"""Tests for the parallel sweep runner.

The task functions live at module level: the pool pickles them by
qualified name (the runner's documented contract).
"""

import random

import pytest

from repro.errors import CampaignError, ConfigurationError
from repro.runner import MonteCarlo, ResultStore, Sweep


def square(params):
    return params * params


def seeded_value(params, seed):
    rng = random.Random(seed)
    return params + rng.random()


def fail_on_negative(params):
    if params < 0:
        raise ValueError(f"negative grid point {params}")
    return params * 10


def mc_trial(params, seed):
    return random.Random(seed).gauss(params, 1.0)


# -- basic semantics ---------------------------------------------------------


def test_serial_sweep_returns_values_in_grid_order():
    result = Sweep(square, workers=1).run([3, 1, 4, 1, 5])
    assert result.values() == [9, 1, 16, 1, 25]
    assert [r.index for r in result.records] == [0, 1, 2, 3, 4]
    assert result.stats.tasks_total == 5
    assert result.stats.tasks_ok == 5


def test_empty_grid():
    result = Sweep(square, workers=2).run([])
    assert result.values() == []
    assert result.stats.tasks_total == 0


def test_seed_passed_only_when_base_seed_given():
    # Without base_seed the task is called fn(params): a seedless fn works.
    assert Sweep(square, workers=1).run([2]).values() == [4]
    # With base_seed the task is called fn(params, seed=...).
    records = Sweep(seeded_value, workers=1, base_seed=7).run([0.0]).records
    assert records[0].seed is not None
    assert 0.0 <= records[0].value < 1.0


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        Sweep(square, workers=0)
    with pytest.raises(ConfigurationError):
        Sweep(square, chunk_size=0)


# -- determinism: serial vs parallel, any chunking ---------------------------


def test_parallel_matches_serial_bit_for_bit():
    grid = [float(k) for k in range(12)]
    serial = Sweep(seeded_value, workers=1, base_seed=2008).run(grid)
    parallel = Sweep(seeded_value, workers=2, base_seed=2008).run(grid)
    assert parallel.values() == serial.values()
    assert [r.seed for r in parallel.records] == [r.seed for r in serial.records]


@pytest.mark.parametrize("chunk_size", [1, 3, 5, 100])
def test_chunking_never_changes_results(chunk_size):
    grid = [float(k) for k in range(11)]
    baseline = Sweep(seeded_value, workers=1, base_seed=5).run(grid).values()
    chunked = (
        Sweep(seeded_value, workers=2, base_seed=5, chunk_size=chunk_size)
        .run(grid)
        .values()
    )
    assert chunked == baseline


def test_seed_salt_changes_results():
    grid = [0.0, 1.0]
    plain = Sweep(seeded_value, workers=1, base_seed=5).run(grid).values()
    salted = (
        Sweep(seeded_value, workers=1, base_seed=5, seed_salt="x")
        .run(grid)
        .values()
    )
    assert plain != salted


# -- structured failure capture ----------------------------------------------


def test_worker_exception_becomes_task_error_record():
    result = Sweep(fail_on_negative, workers=1).run([1, -2, 3])
    assert result.stats.tasks_failed == 1
    assert result.stats.tasks_ok == 2
    failures = result.failures()
    assert len(failures) == 1
    record = failures[0]
    assert record.index == 1
    assert record.params == -2
    assert record.error.type == "ValueError"
    assert "negative grid point -2" in record.error.message
    assert "fail_on_negative" in record.error.traceback
    # Healthy neighbours still completed.
    assert result.records[0].value == 10
    assert result.records[2].value == 30


def test_values_raises_campaign_error_on_failure():
    result = Sweep(fail_on_negative, workers=1).run([1, -2])
    with pytest.raises(CampaignError) as excinfo:
        result.values()
    assert "ValueError" in str(excinfo.value)
    assert "task 1" in str(excinfo.value)


def test_parallel_failure_capture_does_not_kill_pool():
    result = Sweep(fail_on_negative, workers=2, chunk_size=1).run([-1, 2, -3, 4])
    assert result.stats.tasks_failed == 2
    assert [r.ok for r in result.records] == [False, True, False, True]


# -- memoization --------------------------------------------------------------


def test_result_cache_answers_second_run(tmp_path):
    sweep = Sweep(square, name="sq", workers=1,
                  store=ResultStore(str(tmp_path)))
    first = sweep.run([2, 3])
    assert first.stats.cache_hits == 0
    second = sweep.run([2, 3, 4])
    assert second.stats.cache_hits == 2
    assert second.values() == [4, 9, 16]
    cached = [r for r in second.records if r.cached]
    assert len(cached) == 2
    assert all(r.duration_s == 0.0 for r in cached)


def test_failed_tasks_are_not_cached(tmp_path):
    store = ResultStore(str(tmp_path))
    sweep = Sweep(fail_on_negative, name="neg", workers=1, store=store)
    sweep.run([-1])
    assert store.stats.entries == 0
    assert list(tmp_path.iterdir()) == []
    again = sweep.run([-1])
    assert again.stats.cache_hits == 0


# -- metrics -----------------------------------------------------


def test_stats_throughput_fields():
    stats = Sweep(square, workers=1).run([1, 2, 3]).stats
    assert stats.tasks_per_s > 0.0
    assert stats.wall_s > 0.0
    assert stats.task_s >= 0.0
    assert stats.cache_hit_rate == 0.0
    assert "3 tasks" in stats.summary()


# -- MonteCarlo ---------------------------------------------------------------


def test_monte_carlo_trials_and_reduction():
    mc = MonteCarlo(mc_trial, base_seed=2008, trials=64, workers=1)
    result = mc.run(10.0, reduce=lambda vs: sum(vs) / len(vs))
    assert len(result.values) == 64
    assert result.reduced == pytest.approx(10.0, abs=1.0)


def test_monte_carlo_parallel_matches_serial():
    serial = MonteCarlo(mc_trial, base_seed=2008, trials=20, workers=1).run(0.0)
    parallel = MonteCarlo(mc_trial, base_seed=2008, trials=20, workers=2).run(0.0)
    assert parallel.values == serial.values


def test_monte_carlo_invalid_trials_rejected():
    with pytest.raises(ConfigurationError):
        MonteCarlo(mc_trial, base_seed=1, trials=0)
