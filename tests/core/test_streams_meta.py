"""Tests for the stream meta-middleware (the paper's future work)."""

import pytest

from repro.errors import FrameworkError, StreamNotBridgeableError
from repro.apps.home import build_smart_home
from repro.core.streams import (
    FORMAT_LADDER,
    StreamMetaMiddleware,
    StreamSink,
    fit_format,
)
from repro.havi.streams import FORMAT_BANDWIDTH


@pytest.fixture
def stream_home():
    home = build_smart_home(with_x10=False, with_mail=False)
    home.connect()
    meta = StreamMetaMiddleware(home.mm)
    meta.attach("havi")
    meta.attach("jini")
    return home, meta


class TestFormatFitting:
    def test_dv_transcodes_down_on_10mbps(self):
        assert fit_format("DV", 10e6) == "MPEG2"

    def test_dv_passes_through_on_fast_backbone(self):
        assert fit_format("DV", 100e6) == "DV"

    def test_requested_format_is_a_ceiling(self):
        assert fit_format("MPEG2", 100e6) == "MPEG2"  # never upscale

    def test_nothing_fits_a_trickle(self):
        with pytest.raises(StreamNotBridgeableError):
            fit_format("DV", 100_000)

    def test_unknown_format_rejected(self):
        with pytest.raises(FrameworkError):
            fit_format("VHS", 10e6)

    def test_ladder_is_ordered_by_bandwidth(self):
        bandwidths = [FORMAT_BANDWIDTH[fmt] for fmt in FORMAT_LADDER]
        assert bandwidths == sorted(bandwidths, reverse=True)


class TestRelay:
    def test_cross_island_stream_flows(self, stream_home):
        home, meta = stream_home
        sink = StreamSink.counter()
        meta.register_sink("jini", "pc", sink)
        stream = home.sim.run_until_complete(meta.relay("havi", "jini", "pc", fmt="DV"))
        assert stream.delivered_format == "MPEG2"
        assert stream.transcoded
        home.run(10.0)
        achieved_bps = sink.bytes_received * 8 / 10.0
        assert achieved_bps == pytest.approx(FORMAT_BANDWIDTH["MPEG2"], rel=0.15)

    def test_sink_receives_first_bytes_quickly(self, stream_home):
        home, meta = stream_home
        sink = StreamSink.counter()
        meta.register_sink("jini", "pc", sink)
        stream = home.sim.run_until_complete(meta.relay("havi", "jini", "pc"))
        home.run(2.0)
        assert sink.first_byte_at is not None
        assert sink.first_byte_at - stream.opened_at < 1.0

    def test_close_stops_the_flow(self, stream_home):
        home, meta = stream_home
        sink = StreamSink.counter()
        meta.register_sink("jini", "pc", sink)
        stream = home.sim.run_until_complete(meta.relay("havi", "jini", "pc"))
        home.run(2.0)
        stream.close()
        flowed = sink.bytes_received
        home.run(5.0)
        # Chunks already on the wire at close time may still land; after
        # that, the flow is dead (strictly less than one pump tick more).
        one_tick = stream.bandwidth_bps / 8 * 0.25
        assert sink.bytes_received - flowed <= one_tick
        assert meta.active_streams == 0

    def test_forced_format_overruns_the_backbone(self, stream_home):
        """The reproduction of *why* conversion is mandatory: forcing DV
        onto the 10 Mb/s backbone caps delivery below the offer."""
        home, meta = stream_home
        sink = StreamSink.counter()
        meta.register_sink("jini", "pc", sink)
        stream = home.sim.run_until_complete(
            meta.relay("havi", "jini", "pc", fmt="DV", force_format=True)
        )
        home.run(10.0)
        offered = stream.offered_bps
        achieved = sink.bytes_received * 8 / 10.0
        assert offered == pytest.approx(FORMAT_BANDWIDTH["DV"], rel=0.15)
        assert achieved < home.mm.backbone.bandwidth_bps  # physics wins
        assert achieved < offered * 0.5

    def test_offered_rate_stops_at_close(self, stream_home):
        """The offer is measured over the open interval: idle virtual time
        after close() must not dilute it."""
        home, meta = stream_home
        meta.register_sink("jini", "pc", StreamSink.counter())
        stream = home.sim.run_until_complete(
            meta.relay("havi", "jini", "pc", fmt="MPEG2")
        )
        home.run(10.0)
        stream.close()
        at_close = stream.offered_bps
        home.run(10.0)
        assert stream.offered_bps == at_close
        assert at_close == pytest.approx(FORMAT_BANDWIDTH["MPEG2"], rel=0.15)

    def test_unknown_sink_fails(self, stream_home):
        home, meta = stream_home
        with pytest.raises(FrameworkError, match="no sink"):
            home.sim.run_until_complete(meta.relay("havi", "jini", "ghost"))

    def test_unattached_island_fails(self, stream_home):
        home, meta = stream_home
        with pytest.raises(FrameworkError, match="no stream receiver"):
            home.sim.run_until_complete(meta.relay("havi", "nowhere", "pc"))
        with pytest.raises(FrameworkError, match="no stream receiver"):
            meta.register_sink("nowhere", "pc", StreamSink.counter())

    def test_fcm_sink_adapter(self, stream_home):
        """A HAVi display FCM on another island consumes the relay."""
        home, meta = stream_home
        sink = StreamSink.wrap_fcm(home.tv_display)
        meta.register_sink("jini", "virtual-display", sink)
        home.sim.run_until_complete(meta.relay("havi", "jini", "virtual-display"))
        home.run(5.0)
        assert home.tv_display.bytes_displayed > 1_000_000

    def test_coexists_with_vsg_calls(self, stream_home):
        """Section 6: 'the middleware would be able to coexist with our
        framework' — calls keep flowing while a stream saturates."""
        home, meta = stream_home
        sink = StreamSink.counter()
        meta.register_sink("jini", "pc", sink)
        home.sim.run_until_complete(meta.relay("havi", "jini", "pc"))
        home.run(3.0)
        t0 = home.sim.now
        assert home.invoke_from("havi", "Refrigerator", "get_temperature") == 4.0
        call_latency = home.sim.now - t0
        # The stream loads the backbone, so calls are slower but bounded.
        assert call_latency < 2.0

    def test_two_streams_share_the_backbone(self, stream_home):
        home, meta = stream_home
        sinks = [StreamSink.counter(), StreamSink.counter()]
        meta.register_sink("jini", "pc-a", sinks[0])
        meta.register_sink("jini", "pc-b", sinks[1])
        home.sim.run_until_complete(meta.relay("havi", "jini", "pc-a", fmt="MPEG2"))
        home.sim.run_until_complete(meta.relay("havi", "jini", "pc-b", fmt="AUDIO"))
        home.run(10.0)
        assert sinks[0].bytes_received > 0
        assert sinks[1].bytes_received > 0
        assert meta.active_streams == 2
