"""E9 — Link budget and range (paper §4.6, §6).

Claims: "Transmitted signal strength is about -60 dBm at 1 meter";
"Range is about 1 meter depending on orientation of the antenna."

Regenerates: received power vs. distance and the link-margin/range table
against the superregenerative demo receiver.  Shape checks: -60 +- 2 dBm
at 1 m; range in the ~1-3 m band; 20 dB/decade rolloff; packets decode at
demo distance and die beyond range.
"""

import pytest
from conftest import print_table

from repro.net.packet import encode_accel_reading
from repro.net.receiver_chain import DemoReceiverChain
from repro.radio.antenna import PatchAntenna
from repro.radio.link import RadioLink
from repro.radio.receiver import SuperregenerativeReceiver


def sweep():
    link = RadioLink(PatchAntenna())
    receiver = SuperregenerativeReceiver()
    distances = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    budget_rows = [(d, link.budget(d)) for d in distances]
    # End-to-end packet decoding at each distance.
    decode_rows = []
    for distance in distances:
        chain = DemoReceiverChain(link, receiver)
        packets = [encode_accel_reading(1, seq, 0.1, 0.2, 1.0)
                   for seq in range(50)]
        stats = chain.session(packets, distance)
        decode_rows.append((distance, stats.decoded, stats.transmitted))
    return link, budget_rows, decode_rows


def test_e9_link_budget(benchmark):
    link, budget_rows, decode_rows = benchmark(sweep)

    print_table(
        "E9a: link budget vs distance (paper: ~-60 dBm at 1 m)",
        ["distance", "path loss", "received", "margin", "closes"],
        [
            (f"{d:.2f} m", f"{b.path_loss_db:.1f} dB",
             f"{b.received_dbm:.1f} dBm", f"{b.margin_db:+.1f} dB",
             "yes" if b.closes else "no")
            for d, b in budget_rows
        ],
    )
    print_table(
        "E9b: packet decoding vs distance (50 packets each)",
        ["distance", "decoded"],
        [(f"{d:.2f} m", f"{ok}/{n}") for d, ok, n in decode_rows],
    )
    print(f"\nmax range: {link.max_range_m():.2f} m "
          "(paper: 'about 1 meter')")

    # Shape: the paper's -60 dBm at one metre.
    at_1m = dict((d, b) for d, b in budget_rows)[1.0]
    assert at_1m.received_dbm == pytest.approx(-60.0, abs=2.0)
    # Shape: range about a metre (allowing the 'depending on orientation').
    assert 0.7 < link.max_range_m() < 3.0
    # Shape: free-space rolloff, 6 dB per doubling.
    received = [b.received_dbm for _, b in budget_rows]
    diffs = [a - b for a, b in zip(received, received[1:])]
    assert all(d == pytest.approx(6.02, abs=0.1) for d in diffs)
    # Shape: perfect decode at demo distance, nothing at 8 m.
    decode = {d: ok for d, ok, _ in decode_rows}
    assert decode[1.0] == 50
    assert decode[8.0] == 0
