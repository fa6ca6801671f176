"""Channel noise windows and retry-with-backoff on the fleet channel."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.net.fleet import FleetChannel, RetryPolicy, resolve_channel
from repro.sim.fleet_engine import FleetScenario


def run_fleet(**channel):
    """Three nodes for 120 s, their bursts resolved with ``channel``'s
    noise windows and retry settings, as ``run_fleet`` resolves them."""
    fleet = FleetChannel(3)
    fleet.advance(120.0)
    stats = resolve_channel(fleet.air_time_records(), **channel)
    return fleet, stats


class TestRetryPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_s=-0.1)

    @pytest.mark.parametrize("field", ["backoff_s", "jitter_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timing(self, field, value):
        # NaN compares False against every bound, so a NaN backoff used to
        # pass the range check and count every noise-lost burst recovered.
        with pytest.raises(ConfigurationError, match="finite"):
            RetryPolicy(**{field: value})

    def test_rejects_bad_noise_windows(self):
        with pytest.raises(ConfigurationError):
            FleetScenario(2, 60.0, noise_windows=((10.0, 5.0),))
        with pytest.raises(ConfigurationError):
            FleetScenario(2, 60.0, noise_windows=((-1.0, 5.0),))


class TestNoiseAccounting:
    def test_clean_channel_loses_nothing_to_noise(self):
        _, stats = run_fleet()
        assert stats.lost_to_noise == 0
        assert stats.retries == 0
        assert stats.recovered == 0

    def test_noise_window_drops_covered_bursts(self):
        _, stats = run_fleet(noise_windows=[(30.0, 60.0)])
        assert stats.lost_to_noise > 0
        assert stats.delivered < stats.transmitted
        assert stats.loss_rate > 0.0

    def test_full_run_noise_loses_everything(self):
        _, stats = run_fleet(noise_windows=[(0.0, 200.0)])
        assert stats.lost_to_noise == stats.transmitted - stats.collided
        assert stats.delivered == 0
        assert stats.loss_rate == 1.0


class TestRetryRecovery:
    def test_retries_recover_bounded_noise_losses(self):
        _, no_retry = run_fleet(noise_windows=[(30.0, 60.0)])
        _, with_retry = run_fleet(
            noise_windows=[(30.0, 60.0)], retry=RetryPolicy(max_retries=3)
        )
        assert with_retry.lost_to_noise == no_retry.lost_to_noise
        assert with_retry.retries > 0
        # A burst retried just past a 30 s window still lands in noise;
        # with ms-scale backoff nothing escapes a window that wide, so
        # recovery requires the window edge — check coherence instead.
        assert 0 <= with_retry.recovered <= with_retry.lost_to_noise
        assert with_retry.delivered >= no_retry.delivered

    def test_edge_bursts_recover_with_long_backoff(self):
        # Backoff long enough to hop over a 2 s window: recovery happens.
        _, stats = run_fleet(
            noise_windows=[(30.0, 32.0)],
            retry=RetryPolicy(max_retries=3, backoff_s=1.5, jitter_s=0.1),
        )
        assert stats.lost_to_noise > 0
        assert stats.recovered > 0
        assert stats.delivered == (
            stats.transmitted - stats.collided - stats.lost_to_noise
            + stats.recovered
        )

    def test_retry_modelling_is_deterministic(self):
        kwargs = dict(
            noise_windows=[(30.0, 32.0)],
            retry=RetryPolicy(max_retries=3, backoff_s=1.5, jitter_s=0.1),
        )
        _, a = run_fleet(**kwargs)
        _, b = run_fleet(**kwargs)
        assert a == b

    def test_retry_seed_changes_jitter_outcome(self):
        kwargs = dict(
            noise_windows=[(30.0, 31.0)],
            retry=RetryPolicy(max_retries=1, backoff_s=0.6, jitter_s=0.5),
        )
        _, a = run_fleet(retry_seed=1, **kwargs)
        _, b = run_fleet(retry_seed=2, **kwargs)
        assert a.lost_to_noise == b.lost_to_noise
        # Same losses, but the jittered retry timing may differ; both
        # stay internally coherent.
        for stats in (a, b):
            assert stats.recovered <= stats.retries
            assert stats.delivered <= stats.transmitted
