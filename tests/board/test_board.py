"""Tests for the physical-design substrate (E15)."""

import pytest

from repro.board.elastomer import ElastomericConnector
from repro.board.pcb import Component, PadRing, Pcb
from repro.board.stack import CubeStack, gap_matched_connector, standard_picocube
from repro.errors import ConfigurationError, GeometryError


# -- elastomer -----------------------------------------------------------------


def test_wires_per_pad_matches_paper_geometry():
    """0.05 mm wires on 0.1 mm pitch: a 1.2 mm pad catches 12 wires."""
    connector = ElastomericConnector()
    assert connector.wires_per_pad(1.2e-3) == 12


def test_pad_resistance_parallel_wires():
    connector = ElastomericConnector(wire_resistance_ohm=0.12)
    assert connector.pad_resistance(1.2e-3) == pytest.approx(0.01)


def test_pad_current_capacity_generous():
    """Paper: 'even the smallest pad turned out to be larger than needed'."""
    connector = ElastomericConnector()
    # 12 wires x 100 mA each >> the cube's 4 mA peak
    assert connector.pad_current_capacity(1.2e-3) > 1.0


def test_tiny_pad_catches_no_wires():
    connector = ElastomericConnector()
    with pytest.raises(GeometryError):
        connector.pad_resistance(0.05e-3)


def test_compression_window():
    connector = ElastomericConnector(
        beam_height_m=1.0e-3, compression_fraction=0.10
    )
    connector.check_compression(0.95e-3)  # within window
    with pytest.raises(GeometryError):
        connector.check_compression(1.05e-3)  # uncompressed
    with pytest.raises(GeometryError):
        connector.check_compression(0.85e-3)  # over-compressed


def test_deformation_needs_channel_width():
    """Connectors deform but do not compress: channel must be wider."""
    connector = ElastomericConnector(
        beam_thickness_m=0.6e-3, deformation_fraction=0.15
    )
    assert connector.channel_width_required() == pytest.approx(0.69e-3)


def test_connector_validation():
    with pytest.raises(ConfigurationError):
        ElastomericConnector(wire_diameter_m=0.2e-3, pitch_m=0.1e-3)


def test_gap_matched_connector_fits_its_gap():
    for gap in (0.75e-3, 0.9e-3, 1.2e-3):
        gap_matched_connector(gap).check_compression(gap)


# -- pad ring ----------------------------------------------------------------------


def test_pad_ring_default_18_pads_fit():
    ring = PadRing()
    assert ring.pads_total == 18
    assert ring.free_pads() == 18


def test_pad_ring_too_many_pads_rejected():
    with pytest.raises(GeometryError):
        PadRing(pads_total=40)


def test_pad_ring_signal_assignment():
    ring = PadRing()
    ring.assign(0, "vbatt")
    ring.assign(1, "gnd")
    assert ring.signal_at(0) == "vbatt"
    assert ring.signal_at(5) is None
    assert ring.free_pads() == 16
    assert ring.assignments() == {0: "vbatt", 1: "gnd"}


def test_pad_ring_double_assignment_rejected():
    ring = PadRing()
    ring.assign(0, "vbatt")
    with pytest.raises(GeometryError):
        ring.assign(0, "gnd")


def test_pad_ring_bad_index_rejected():
    with pytest.raises(GeometryError):
        PadRing().assign(18, "x")


def test_full_picocube_bus_fits():
    """The Fig 1 bus: supplies, SPI, radio controls — under 18 signals."""
    ring = PadRing()
    signals = [
        "vbatt", "gnd", "vdd-mcu", "vdd-radio-dig", "vdd-radio-rf",
        "spi-clk", "spi-mosi", "spi-miso", "spi-cs-sensor", "spi-cs-radio",
        "tx-data", "radio-pa-enable", "radio-spi-power", "sensor-irq",
        "harvester-ac-a", "harvester-ac-b",
    ]
    for index, signal in enumerate(signals):
        ring.assign(index, signal)
    assert ring.free_pads() == 18 - len(signals)


# -- pcb -----------------------------------------------------------------------------


def test_placement_area_is_7p2mm_square():
    """Paper: outer 1.4 mm for connectors leaves 7.2 x 7.2 mm."""
    pcb = Pcb("test")
    assert pcb.placement_side_m == pytest.approx(7.2e-3)


def test_sca3000_just_barely_fits():
    """Paper: the 7 x 7 mm accelerometer 'just barely fits'."""
    pcb = Pcb("sensor2")
    pcb.place(Component("sca3000", 7.0e-3, 7.0e-3, 1.2e-3), utilisation_limit=0.97)
    assert pcb.face_utilisation("top") > 0.9


def test_oversize_component_rejected():
    """Paper: the packaged SP12 'is too big for the PCB' — bare die needed."""
    pcb = Pcb("sensor")
    with pytest.raises(GeometryError):
        pcb.place(Component("sp12-packaged", 9.0e-3, 9.0e-3, 2.0e-3))


def test_area_budget_enforced():
    pcb = Pcb("crowded")
    pcb.place(Component("big1", 5.0e-3, 5.0e-3, 0.5e-3))
    with pytest.raises(GeometryError):
        pcb.place(Component("big2", 5.0e-3, 5.0e-3, 0.5e-3))


def test_faces_budgeted_independently():
    pcb = Pcb("two-sided")
    pcb.place(Component("top-part", 5.0e-3, 5.0e-3, 0.5e-3, face="top"))
    pcb.place(Component("bot-part", 5.0e-3, 5.0e-3, 0.5e-3, face="bottom"))
    assert pcb.face_utilisation("top") == pcb.face_utilisation("bottom")


def test_max_component_height_per_face():
    pcb = Pcb("heights")
    pcb.place(Component("short", 1e-3, 1e-3, 0.3e-3, face="top"))
    pcb.place(Component("tall", 1e-3, 1e-3, 0.9e-3, face="top"))
    assert pcb.max_component_height("top") == pytest.approx(0.9e-3)
    assert pcb.max_component_height("bottom") == 0.0


# -- stack ------------------------------------------------------------------


def test_standard_picocube_is_one_cc():
    """The headline claim: everything fits in 1 cm^3."""
    cube = standard_picocube()
    assert cube.is_one_cubic_centimetre()
    assert len(cube.entries) == 5


def test_standard_picocube_board_names():
    cube = standard_picocube()
    names = [entry.pcb.name for entry in cube.entries]
    assert names == ["storage", "controller", "sensor", "switch", "radio"]


def test_standard_picocube_radio_is_four_layer():
    cube = standard_picocube()
    assert cube.board("radio").metal_layers == 4


def test_stack_rejects_tall_component_in_small_gap():
    stack = CubeStack()
    lower = Pcb("lower")
    lower.place(Component("tall-part", 2e-3, 2e-3, 1.5e-3, face="top"))
    upper = Pcb("upper")
    stack.add_board(lower, gap_above_m=1.0e-3)
    stack.add_board(upper, gap_above_m=0.0)
    with pytest.raises(GeometryError):
        stack.validate()


def test_stack_rejects_overheight():
    stack = CubeStack(height_limit_m=5e-3)
    for k in range(4):
        stack.add_board(Pcb(f"b{k}", thickness_m=1.0e-3),
                        gap_above_m=1.0e-3 if k < 3 else 0.0)
    with pytest.raises(GeometryError):
        stack.validate()


def test_stack_rejects_wide_board():
    stack = CubeStack(side_limit_m=10e-3)
    with pytest.raises(GeometryError):
        stack.add_board(Pcb("wide", board_side_m=12e-3))


def test_stack_requires_two_boards():
    stack = CubeStack()
    stack.add_board(Pcb("only"))
    with pytest.raises(GeometryError):
        stack.validate()


def test_stack_top_board_must_have_no_gap():
    stack = CubeStack()
    stack.add_board(Pcb("a"), gap_above_m=1.0e-3)
    stack.add_board(Pcb("b"), gap_above_m=1.0e-3)
    with pytest.raises(GeometryError):
        stack.validate()


def test_stack_connector_compression_enforced():
    stack = CubeStack(connector=ElastomericConnector(beam_height_m=2.5e-3))
    stack.add_board(Pcb("a"), gap_above_m=1.0e-3)  # over-compresses 2.5 mm beam
    stack.add_board(Pcb("b"), gap_above_m=0.0)
    with pytest.raises(GeometryError):
        stack.validate()


def test_stack_unknown_board_lookup():
    with pytest.raises(GeometryError):
        standard_picocube().board("ghost")
