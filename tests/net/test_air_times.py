"""Columnar air-time records and the vectorised channel resolution.

The record-at-a-time channel code these columns replaced is kept here
as the reference: ``_reference_resolve`` and ``_reference_retries`` are
the old ``resolve_channel``/``model_retries`` loops, and
``_reference_build_records`` the old per-packet record builder.  The
properties pin the columnar code to them exactly.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigurationError
from repro.net.cohort import CohortSpec, _ChainState, _CohortMachine
from repro.net.fleet import (
    AirTimeRecord,
    AirTimes,
    FleetChannel,
    FleetStats,
    RetryPolicy,
    burst_in_noise,
    model_retries,
    resolve_channel,
)
from repro.runner.store import RESULT_CODE_VERSION, ResultStore
from repro.sim.fleet_engine import FleetScenario, run_fleet


# -- the record-at-a-time reference ------------------------------------------


def _reference_retries(lost, delivered, retry, noise_windows, retry_seed):
    retries = recovered = 0
    occupied = list(delivered)
    for record in sorted(lost, key=lambda r: (r.start, r.node_id)):
        rng = random.Random(f"{retry_seed}:{record.node_id}:{record.seq}")
        duration = record.end - record.start
        t = record.end
        for attempt in range(1, retry.max_retries + 1):
            t += (
                retry.backoff_s * (2.0 ** (attempt - 1))
                + rng.uniform(0.0, retry.jitter_s)
            )
            candidate = AirTimeRecord(record.node_id, record.seq, t,
                                      t + duration)
            retries += 1
            t = candidate.end
            if burst_in_noise(candidate, noise_windows):
                continue
            if any(candidate.overlaps(r) for r in occupied):
                continue
            occupied.append(candidate)
            recovered += 1
            break
    return retries, recovered


def _reference_resolve(records, noise_windows=(), retry=None,
                       retry_seed=2008):
    collided_ids = set()
    active = None
    for record in records:
        if active is not None and record.start < active.end:
            collided_ids.add((active.node_id, active.seq))
            collided_ids.add((record.node_id, record.seq))
        if active is None or record.end > active.end:
            active = record
    noised = [
        r for r in records
        if (r.node_id, r.seq) not in collided_ids
        and burst_in_noise(r, noise_windows)
    ]
    stats = FleetStats(transmitted=len(records), collided=len(collided_ids),
                       lost_to_noise=len(noised))
    if retry is not None and noised:
        clean = [
            r for r in records
            if (r.node_id, r.seq) not in collided_ids
            and not burst_in_noise(r, noise_windows)
        ]
        stats.retries, stats.recovered = _reference_retries(
            noised, clean, retry, noise_windows, retry_seed
        )
    return stats


def _reference_build_records(machine, packets):
    probe = machine.probe
    offset = FleetChannel._transmit_offset(probe)
    on_air = probe.tx.startup_time() + probe.modulator.duration(
        machine.n_air_bits
    )
    records = []
    for position, node_index in enumerate(machine.spec.node_indices):
        epoch = float(machine.epochs[position])
        for seq in range(int(packets[position])):
            start = (epoch + (seq * machine.period)) + offset
            records.append(AirTimeRecord(node_index + 1, seq, start,
                                         start + on_air))
    return records


# -- columnar resolve_channel == the record loop ------------------------------

# A few shared starts and widths make equal starts and nested bursts
# common; small id/seq ranges make duplicate (node_id, seq) keys common.
_starts = st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0, 4.0]),
                    st.floats(min_value=0.0, max_value=12.0))
_widths = st.one_of(st.sampled_from([0.25, 0.5, 3.0]),
                    st.floats(min_value=1e-4, max_value=4.0))
_bursts = st.lists(
    st.tuples(st.integers(1, 6), st.integers(0, 3), _starts, _widths),
    max_size=40,
)
_windows = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=12.0),
              st.floats(min_value=1e-3, max_value=4.0)),
    max_size=3,
)
_retry = st.one_of(
    st.none(),
    st.builds(RetryPolicy,
              max_retries=st.integers(1, 3),
              backoff_s=st.floats(min_value=1e-3, max_value=1.0),
              jitter_s=st.floats(min_value=0.0, max_value=0.5)),
)


@settings(max_examples=300, deadline=None)
@given(bursts=_bursts, windows=_windows, retry=_retry,
       seed=st.integers(0, 50))
def test_resolve_channel_matches_record_loop(bursts, windows, retry, seed):
    records = sorted(
        (AirTimeRecord(node, seq, start, start + width)
         for node, seq, start, width in bursts),
        key=lambda r: r.start,
    )
    noise = [(lo, lo + width) for lo, width in windows]
    expected = _reference_resolve(records, noise, retry, seed)
    got = resolve_channel(AirTimes.of(records), noise_windows=noise,
                          retry=retry, retry_seed=seed)
    assert got == expected
    assert resolve_channel(records, noise, retry, seed) == expected


def test_fleet_with_noise_and_retries_matches_record_loop():
    rng = random.Random(5)
    phases = [rng.uniform(0.0, 6.0) for _ in range(60)]
    phases[1] = phases[0] + 1e-4  # one pair always collides
    noise = [(10.0, 13.0), (20.0, 20.5)]
    retry = RetryPolicy()
    fleet = FleetChannel(60, phases=phases)
    fleet.advance(40.0)
    stats = resolve_channel(fleet.air_time_records(), noise_windows=noise,
                            retry=retry, retry_seed=2008)
    records = list(fleet.air_time_records())
    assert stats.lost_to_noise and stats.collided and stats.recovered
    assert stats == _reference_resolve(records, noise, retry, 2008)


def test_retry_touching_delivered_bursts_is_accepted():
    """Overlap against the delivered columns is strict on both sides."""
    lost = AirTimeRecord(1, 0, 5.0, 5.5)  # attempt 1 lands on (6.0, 6.5)
    policy = RetryPolicy(max_retries=2, backoff_s=0.5, jitter_s=0.0)
    touching = AirTimes.of([AirTimeRecord(2, 0, 5.9, 6.0),
                            AirTimeRecord(3, 0, 6.5, 7.0)])
    assert model_retries([lost], touching, policy, [(4.0, 5.8)]) == (1, 1)
    nudged = dataclasses.replace(touching, start=np.array([5.9, 6.4999]))
    assert model_retries([lost], nudged, policy, [(4.0, 5.8)]) == (2, 1)


# -- input validation ---------------------------------------------------------


def test_resolve_channel_rejects_unsorted_records():
    records = [AirTimeRecord(1, 0, 5.0, 6.0), AirTimeRecord(2, 0, 0.0, 1.0)]
    assert resolve_channel(sorted(records, key=lambda r: r.start)).collided == 0
    with pytest.raises(ConfigurationError, match="sorted"):
        resolve_channel(records)


@pytest.mark.parametrize("start, end", [
    (float("nan"), 1.0), (0.5, float("nan")), (0.5, float("inf")),
])
def test_resolve_channel_rejects_non_finite_times(start, end):
    records = [AirTimeRecord(1, 0, 0.0, 1.0), AirTimeRecord(2, 0, start, end)]
    with pytest.raises(ConfigurationError, match="finite"):
        resolve_channel(records)


@pytest.mark.parametrize("engine", ["cohort", "per-node"])
def test_invalid_noise_window_rejected_on_both_engines(engine):
    with pytest.raises(ConfigurationError,
                       match=r"invalid noise window \[5.0, 2.0\]"):
        run_fleet(FleetScenario(node_count=4, duration_s=30.0,
                                noise_windows=((5.0, 2.0),)),
                  engine=engine)


# -- columnar build_records == the per-packet loop ----------------------------


@pytest.fixture(scope="module")
def machine():
    spec = CohortSpec(node_indices=(3, 4, 9, 10, 11, 40),
                      offsets=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
                      duration_s=30.0)
    return _CohortMachine(spec)


@settings(max_examples=100, deadline=None)
@given(
    packets=st.lists(st.integers(0, 40), min_size=6, max_size=6),
    epochs=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=6,
                    max_size=6),
)
def test_build_records_matches_per_packet_loop(machine, packets, epochs):
    machine.epochs = np.array(epochs)
    counts = np.array(packets, dtype=np.int64)
    state = _ChainState(counts * 0.0, counts * 0.0, counts, counts, None)
    got = machine.build_records(state)
    expected = _reference_build_records(machine, counts)
    assert len(got) == len(expected)
    assert got.node_id.dtype == got.seq.dtype == np.int64
    assert got.start.dtype == got.end.dtype == np.float64
    for ours, theirs in zip(got, expected):
        assert (ours.node_id, ours.seq) == (theirs.node_id, theirs.seq)
        assert ours.start.hex() == theirs.start.hex()
        assert ours.end.hex() == theirs.end.hex()


# -- the AirTimes container ---------------------------------------------------


def _sample_records():
    return [
        AirTimeRecord(1, 0, 2.0, 2.5),
        AirTimeRecord(2, 0, 1.0, 1.5),
        AirTimeRecord(3, 0, 2.0, 2.1),
        AirTimeRecord(1, 1, 1.0, 1.2),
        AirTimeRecord(4, 0, 0.0, 0.3),
        AirTimeRecord(2, 1, 2.0, 2.2),
    ]


def test_sorted_keeps_list_sort_tie_order():
    records = _sample_records()
    assert list(AirTimes.of(records).sorted()) == sorted(
        records, key=lambda r: r.start
    )


def test_iteration_equality_and_concat_round_trip():
    records = _sample_records()
    columns = AirTimes.of(records)
    assert list(columns) == records
    assert len(columns) == len(records)
    assert columns[1] == records[1] and isinstance(columns[1].start, float)
    assert AirTimes.of(columns) is columns
    assert AirTimes.concat([columns[:2], columns[2:5], columns[5:]]) == columns
    assert columns == AirTimes.of(list(columns))
    assert columns != columns[1:]
    moved = dataclasses.replace(columns, end=np.nextafter(columns.end, 9.0))
    assert columns != moved
    assert AirTimes.of([]) == AirTimes.of(iter(()))


def test_fleet_run_records_are_columns_on_both_engines():
    scenario = FleetScenario(node_count=12, duration_s=30.0, phase_seed=3)
    cohort = run_fleet(scenario, cohort_size=5)
    per_node = run_fleet(scenario, engine="per-node")
    assert isinstance(cohort.records, AirTimes)
    assert isinstance(per_node.records, AirTimes)
    assert cohort.records == per_node.records


def test_fleet_compare_prints_bit_identical(capsys):
    code = main(["fleet", "--nodes", "40", "--duration", "30",
                 "--phase-seed", "2008", "--compare"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bit-identical to per-node: True" in out


# -- result store -------------------------------------------------------------


def test_version_one_cohort_entry_is_recomputed(tmp_path):
    """A cohort entry pickled by list-records code is a miss, not a hit."""
    assert RESULT_CODE_VERSION == 2
    scenario = FleetScenario(node_count=4, duration_s=30.0, phase_seed=1)
    fresh = run_fleet(scenario)
    spec = fresh._cohorts[0].spec
    old = ResultStore(str(tmp_path), code_version=1)
    old.put(old.key(("fleet-cohort", spec)), "list-records CohortRun")
    store = ResultStore(str(tmp_path))
    run = run_fleet(scenario, store=store)
    assert store.stats.hits == 0 and store.stats.misses == 1
    assert run.stats == fresh.stats and run.records == fresh.records
