"""Tests for trace/recorder CSV export."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.export import recorder_to_csv, trace_to_csv, write_csv
from repro.sim.recorder import PowerRecorder
from repro.sim.trace import StepTrace


def test_trace_to_csv_breakpoints():
    trace = StepTrace("power", initial=1.0)
    trace.set(2.0, 3.0)
    csv = trace_to_csv(trace)
    lines = csv.strip().splitlines()
    assert lines[0] == "time_s,power"
    assert lines[1] == "0.0,1.0"
    assert lines[2] == "2.0,3.0"


def test_trace_to_csv_no_header():
    trace = StepTrace("p", initial=0.5)
    assert trace_to_csv(trace, header=False).startswith("0.0,0.5")


def make_recorder():
    engine = Engine()
    rec = PowerRecorder(engine)
    rec.record("a", 1.0)
    engine.schedule(1.0, lambda: rec.record("a", 2.0))
    engine.schedule(2.0, lambda: rec.record("b", 4.0))
    engine.run_until(4.0)
    return rec


def test_recorder_to_csv_grid_and_total():
    rec = make_recorder()
    csv = recorder_to_csv(rec, 0.0, 4.0, 1.0)
    lines = csv.strip().splitlines()
    assert lines[0] == "time_s,a,b,total"
    assert len(lines) == 6  # header + 5 grid points
    # t=2: a=2, b=4, total=6
    t2 = lines[3].split(",")
    assert float(t2[1]) == 2.0
    assert float(t2[2]) == 4.0
    assert float(t2[3]) == 6.0


def test_recorder_to_csv_channel_subset():
    rec = make_recorder()
    csv = recorder_to_csv(rec, 0.0, 4.0, 2.0, channels=["b"],
                          include_total=False)
    assert csv.splitlines()[0] == "time_s,b"


def test_recorder_to_csv_integral_matches_energy():
    """Left Riemann sum of the grid equals the exact channel energy when
    breakpoints land on the grid."""
    rec = make_recorder()
    csv = recorder_to_csv(rec, 0.0, 4.0, 0.5, channels=["a"],
                          include_total=False)
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    riemann = sum(float(v) for _, v in rows[:-1]) * 0.5
    assert riemann == pytest.approx(rec.energy("a", 0.0, 4.0))


def test_recorder_to_csv_validation():
    rec = make_recorder()
    with pytest.raises(ConfigurationError):
        recorder_to_csv(rec, 0.0, 4.0, 0.0)
    with pytest.raises(ConfigurationError):
        recorder_to_csv(rec, 4.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        recorder_to_csv(rec, 0.0, 4.0, 1.0, channels=["ghost"])


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), "time_s,x\n0.0,1.0\n")
    assert path.read_text() == "time_s,x\n0.0,1.0\n"


def test_node_profile_exports(tmp_path):
    """End to end: a node run exports a Fig 6 window to CSV."""
    from repro.core.config import NodeConfig
    from repro.core.node import PicoCube

    node = PicoCube(NodeConfig(fidelity="profile"))
    node.run(13.0)
    csv = recorder_to_csv(node.recorder, 5.999, 6.020, 1e-4)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("time_s,")
    assert "radio-rf" in lines[0]
    assert len(lines) > 100
    # The radio burst shows up in the total column.
    totals = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(totals) > 1e-3
    assert min(totals) < 1e-5