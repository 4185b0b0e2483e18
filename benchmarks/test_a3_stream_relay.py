"""Experiment A3 — the future-work extension, measured (Section 6).

The paper defers multimedia to "another Meta middleware ... for
multimedia application[s]".  We built it (`repro.core.streams`) and here
quantify the trade it makes against native HAVi isochronous streaming:

| path | guarantee | bandwidth |
|---|---|---|
| native 1394 iso | reserved channel, lossless | full DV |
| relay, transcoded | best-effort TCP | best format fitting the backbone |
| relay, forced DV | best-effort TCP | collapses at the bottleneck |

Expected shape: native iso delivers the full 28.8 Mb/s; the transcoded
relay delivers a steady MPEG2-rate stream across islands (something the
VSG alone can never do); the forced-DV relay saturates the 10 Mb/s
backbone and falls ever further behind — the quantitative reason the
future work lists "conversion of multimedia streams" as a requirement.
"""

from __future__ import annotations

import pytest

from repro.apps.home import build_smart_home
from repro.core.streams import StreamMetaMiddleware, StreamSink
from repro.havi.streams import FORMAT_BANDWIDTH, Plug

from benchmarks.conftest import report

MEASURE_SECONDS = 20.0


def run_comparison():
    home = build_smart_home(with_x10=False, with_mail=False)
    home.connect()

    # Path 1: native isochronous DV on the 1394 bus.
    native_start = home.sim.now
    connection = home.stream_manager.connect(
        Plug(home.camera, "out"), Plug(home.tv_display, "in"), "DV"
    )
    home.run(MEASURE_SECONDS)
    native_bps = home.tv_display.bytes_displayed * 8 / MEASURE_SECONDS
    connection.disconnect()

    # Paths 2 and 3: the stream meta-middleware across islands.
    meta = StreamMetaMiddleware(home.mm)
    meta.attach("havi")
    meta.attach("jini")

    transcoded_sink = StreamSink.counter()
    meta.register_sink("jini", "pc-a", transcoded_sink)
    stream = home.sim.run_until_complete(meta.relay("havi", "jini", "pc-a", fmt="DV"))
    home.run(MEASURE_SECONDS)
    transcoded_bps = transcoded_sink.bytes_received * 8 / MEASURE_SECONDS
    transcoded_format = stream.delivered_format
    stream.close()
    home.run(1.0)

    forced_sink = StreamSink.counter()
    meta.register_sink("jini", "pc-b", forced_sink)
    forced = home.sim.run_until_complete(
        meta.relay("havi", "jini", "pc-b", fmt="DV", force_format=True)
    )
    home.run(MEASURE_SECONDS)
    forced_bps = forced_sink.bytes_received * 8 / MEASURE_SECONDS
    forced_offer = forced.offered_bps
    forced.close()

    rows = [
        ("native 1394 iso (DV)", "same island", f"{native_bps / 1e6:.1f} Mb/s", "reserved channel"),
        (f"relay, transcoded ({transcoded_format})", "cross island",
         f"{transcoded_bps / 1e6:.1f} Mb/s", "fits the backbone"),
        ("relay, forced DV", "cross island",
         f"{forced_bps / 1e6:.1f} Mb/s of {forced_offer / 1e6:.1f} offered",
         "queueing collapse"),
    ]
    return rows, native_bps, transcoded_bps, forced_bps, forced_offer


def test_a3_stream_relay_ablation(bench_once):
    rows, native_bps, transcoded_bps, forced_bps, forced_offer = bench_once(run_comparison)
    report("A3: multimedia across islands — native vs stream meta-middleware",
           rows, ("path", "scope", "delivered", "property"))
    assert native_bps == pytest.approx(FORMAT_BANDWIDTH["DV"], rel=0.15)
    assert transcoded_bps == pytest.approx(FORMAT_BANDWIDTH["MPEG2"], rel=0.15)
    # The forced stream cannot exceed the backbone and trails its offer.
    assert forced_bps < 10e6
    assert forced_bps < 0.5 * forced_offer
