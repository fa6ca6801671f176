"""Fault-event validation and schedule determinism/serialisation."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.events import (
    ChannelNoiseBurst,
    ConverterDegradation,
    EsrDrift,
    HarvesterDropout,
    SelfDischargeSpike,
    SpuriousReset,
)
from repro.faults.schedule import EVENT_KINDS, FaultSchedule, random_schedule


class TestEventValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            HarvesterDropout(start_s=-1.0, duration_s=10.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            EsrDrift(start_s=0.0, duration_s=-1.0)

    def test_derating_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            HarvesterDropout(0.0, 10.0, derating=1.5)

    def test_spike_multiplier_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            SelfDischargeSpike(0.0, 10.0, multiplier=0.5)

    def test_degradation_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            ConverterDegradation(0.0, 10.0, loss_factor=0.9)

    def test_noise_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            ChannelNoiseBurst(0.0, 10.0, flip_probability=0.0)
        with pytest.raises(ConfigurationError):
            ChannelNoiseBurst(0.0, 10.0, flip_probability=1.5)

    def test_reset_must_be_instantaneous(self):
        with pytest.raises(ConfigurationError):
            SpuriousReset(start_s=5.0, duration_s=1.0)

    def test_window_arithmetic(self):
        event = EsrDrift(start_s=10.0, duration_s=5.0)
        assert event.end_s == 15.0
        assert event.active_at(10.0)
        assert event.active_at(14.999)
        assert not event.active_at(15.0)
        assert not event.active_at(9.999)


NAN, INF = float("nan"), float("inf")

#: ``(event class, field)`` for every time and severity a fault carries.
NUMERIC_FIELDS = [
    (cls, field)
    for cls in (HarvesterDropout, SelfDischargeSpike, EsrDrift,
                ConverterDegradation, ChannelNoiseBurst, SpuriousReset)
    for field in ("start_s", "duration_s")
] + [
    (HarvesterDropout, "derating"),
    (SelfDischargeSpike, "multiplier"),
    (EsrDrift, "multiplier"),
    (ConverterDegradation, "loss_factor"),
    (ChannelNoiseBurst, "flip_probability"),
]


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "cls, field", NUMERIC_FIELDS,
    ids=[f"{cls.__name__}.{field}" for cls, field in NUMERIC_FIELDS])
def test_non_finite_fault_values_rejected_at_construction(cls, field, bad):
    """A NaN or infinite time or severity raises when the event is built
    (directly or from a schedule's dicts), never mid-run."""
    row = {"start_s": 10.0, "duration_s": 30.0, field: bad}
    if cls is SpuriousReset and field == "start_s":
        row["duration_s"] = 0.0
    if cls is ConverterDegradation:
        row["component"] = "tps60313"
    with pytest.raises(ConfigurationError, match=field):
        cls(**row)
    kind = next(kind for kind, known in EVENT_KINDS.items() if known is cls)
    with pytest.raises(ConfigurationError, match=field):
        FaultSchedule.from_dicts([{"kind": kind, **row}])


class TestFaultSchedule:
    def test_sorts_by_start_time(self):
        late = HarvesterDropout(100.0, 10.0)
        early = EsrDrift(5.0, 10.0)
        schedule = FaultSchedule([late, early])
        assert list(schedule) == [early, late]

    def test_rejects_non_events(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(["not-a-fault"])

    def test_of_type_and_windows(self):
        schedule = FaultSchedule([
            HarvesterDropout(0.0, 10.0),
            EsrDrift(5.0, 5.0),
            HarvesterDropout(20.0, 5.0),
        ])
        assert len(schedule.of_type(HarvesterDropout)) == 2
        assert schedule.windows(HarvesterDropout) == [(0.0, 10.0), (20.0, 25.0)]
        assert schedule.end_time() == 25.0

    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert len(schedule) == 0
        assert schedule.end_time() == 0.0

    def test_dict_round_trip(self):
        schedule = random_schedule(42, 7200.0)
        rebuilt = FaultSchedule.from_dicts(schedule.to_dicts())
        assert rebuilt == schedule

    def test_from_dicts_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_dicts([{"kind": "solar-flare", "start_s": 0.0}])

    def test_every_event_class_has_a_kind(self):
        assert set(EVENT_KINDS.values()) == {
            HarvesterDropout, SelfDischargeSpike, EsrDrift,
            ConverterDegradation, ChannelNoiseBurst, SpuriousReset,
        }


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        assert random_schedule(7, 3600.0) == random_schedule(7, 3600.0)

    def test_different_seeds_differ(self):
        assert random_schedule(7, 3600.0) != random_schedule(8, 3600.0)

    def test_counts_are_exact(self):
        schedule = random_schedule(
            3, 7200.0, dropouts=3, discharge_spikes=2, esr_drifts=1,
            degradations=1, noise_bursts=4, resets=2,
        )
        assert len(schedule.of_type(HarvesterDropout)) == 3
        assert len(schedule.of_type(SelfDischargeSpike)) == 2
        assert len(schedule.of_type(ChannelNoiseBurst)) == 4
        assert len(schedule.of_type(SpuriousReset)) == 2
        assert len(schedule) == 13

    def test_windows_stay_inside_duration(self):
        for seed in range(5):
            schedule = random_schedule(seed, 1800.0)
            for event in schedule:
                assert 0.0 <= event.start_s <= 1800.0
                assert event.end_s <= 1800.0 + 1e-9

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigurationError):
            random_schedule(1, 0.0)
