"""Tests for the markdown run-report generator."""

import pytest

from repro.core.builder import build_tpms_node
from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.core.reporting import run_report
from repro.errors import SimulationError
from repro.storage.nimh import NiMHCell


def test_report_requires_a_run():
    node = build_tpms_node()
    with pytest.raises(SimulationError):
        run_report(node)


def test_report_headline_contents():
    node = build_tpms_node()
    node.run(600.0)
    report = run_report(node)
    assert report.startswith("# PicoCube run report")
    assert "average power" in report
    assert "µW" in report
    assert "power-management" in report
    assert "| 6 µW |" in report  # paper comparison column


def test_report_custom_title():
    node = build_tpms_node()
    node.run(60.0)
    assert run_report(node, title="Design review").startswith("# Design review")


def test_report_battery_section():
    node = build_tpms_node()
    node.run(600.0)
    report = run_report(node)
    assert "state of charge" in report
    assert "battery-only lifetime" in report


def test_report_flags_brownout():
    cell = NiMHCell(capacity_mah=0.05)
    cell.set_soc(0.6)
    node = PicoCube(NodeConfig(), battery=cell)
    node.run(15 * 3600.0)
    report = run_report(node)
    assert "BROWNED OUT" in report
    assert "battery-only lifetime" not in report


def test_report_telemetry_section():
    node = build_tpms_node()
    node.run(60.5)
    report = run_report(node)
    assert "packets transmitted: 10" in report
    assert "seq 9" in report


def test_report_is_valid_markdown_table():
    node = build_tpms_node()
    node.run(60.0)
    report = run_report(node)
    table_lines = [l for l in report.splitlines() if l.startswith("|")]
    widths = {line.count("|") for line in table_lines}
    # Two tables, both with consistent column counts (3 or 4 columns).
    assert widths <= {4, 5}
