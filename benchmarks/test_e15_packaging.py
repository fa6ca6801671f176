"""E15 — Packaging feasibility: 1 cm^3 (paper §4.1, §4.2, Figs 2-5).

Claims: five stacked boards, an 18-pad elastomer bus ring with 0.05 mm
wires on 0.1 mm pitch ("contact integrity and current capability of the
wires was such that even the smallest pad turned out to be larger than
needed"), a 7.2 x 7.2 mm placement square, and the whole assembly in
1 cm^3.

Regenerates: the stack's dimension ledger and the connector's electrical
budget; injects the failures the design rules exist to catch.  Shape
checks: the standard cube validates at exactly 1 cm^3; the pad current
budget exceeds the node's worst-case draw by orders of magnitude; the
constraint system rejects each canonical violation.
"""

import pytest
from conftest import print_table

from repro.board.elastomer import ElastomericConnector
from repro.board.pcb import PAD_LENGTH_M, Component, Pcb
from repro.board.stack import CubeStack, standard_picocube
from repro.errors import GeometryError


def build_and_measure():
    cube = standard_picocube()
    connector = ElastomericConnector()
    ledger = []
    for entry in cube.entries:
        ledger.append(
            (entry.pcb.name,
             entry.pcb.thickness_m,
             entry.gap_above_m,
             entry.pcb.max_component_height("top"),
             entry.pcb.face_utilisation("top"))
        )
    return cube, connector, ledger


def test_e15_packaging(benchmark):
    cube, connector, ledger = benchmark(build_and_measure)

    print_table(
        "E15a: stack ledger (bottom-up)",
        ["board", "thickness", "gap above", "tallest part", "top util"],
        [
            (name, f"{t * 1e3:.2f} mm", f"{gap * 1e3:.2f} mm",
             f"{h * 1e3:.2f} mm", f"{util:.0%}")
            for name, t, gap, h, util in ledger
        ],
    )
    print(f"\nbase (battery pocket): {cube.base_m * 1e3:.2f} mm, "
          f"lid: {cube.lid_m * 1e3:.2f} mm")
    print(f"total height: {cube.total_height() * 1e3:.2f} mm; "
          f"volume: {cube.volume_cm3():.3f} cm^3; "
          f"1 cm^3: {cube.is_one_cubic_centimetre()}")
    wires = connector.wires_per_pad(PAD_LENGTH_M)
    print(f"connector: {wires} wires/pad, "
          f"{connector.pad_resistance(PAD_LENGTH_M) * 1e3:.0f} mohm/pad, "
          f"{connector.pad_current_capacity(PAD_LENGTH_M):.1f} A capacity")

    # Shape: the headline — everything in one cubic centimetre.
    assert cube.is_one_cubic_centimetre()
    assert len(cube.entries) == 5
    # Shape: the pad "turned out to be larger than needed" — capacity
    # exceeds the node's ~4 mA worst case by >100x.
    assert connector.pad_current_capacity(PAD_LENGTH_M) > 100 * 4e-3
    # Shape: milliohm-class contact: negligible drop at node currents.
    assert connector.pad_resistance(PAD_LENGTH_M) * 4e-3 < 1e-3  # < 1 mV

    # Failure injection: each design rule trips on its canonical violation.
    with pytest.raises(GeometryError):  # packaged SP12 instead of bare die
        cube.board("sensor").place(Component("sp12-packaged", 9e-3, 9e-3, 2e-3))
    with pytest.raises(GeometryError):  # six boards do not fit
        fat = standard_picocube()
        fat.entries[-1].gap_above_m = 1.0e-3
        fat.add_board(Pcb("extra", thickness_m=0.7e-3))
        fat.validate()
    with pytest.raises(GeometryError):  # over-compressed elastomer
        connector.check_compression(0.5 * connector.beam_height_m)
    with pytest.raises(GeometryError):  # oversized board vs the tube
        tube = CubeStack()
        tube.add_board(Pcb("wide", board_side_m=12e-3))
