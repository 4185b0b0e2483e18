"""Tests for orderly framework shutdown."""

import pytest

from repro.apps.home import build_smart_home
from tests.router_views import polled


class TestShutdown:
    def test_shutdown_stops_polling_and_listeners(self):
        home = build_smart_home()
        home.connect()
        # Arm some event polling first.
        home.sim.run_until_complete(
            home.islands["havi"].gateway.subscribe("x10.ON", lambda t, p, s: None)
        )
        home.run(5.0)
        polls_before = home.islands["havi"].gateway.events.polls_performed
        assert polls_before > 0
        home.mm.shutdown()
        home.run(30.0)
        assert home.islands["havi"].gateway.events.polls_performed == polls_before

    def test_calls_fail_after_shutdown(self):
        home = build_smart_home()
        home.connect()
        home.mm.shutdown()
        with pytest.raises(Exception):
            home.invoke_from("jini", "Digital_TV_tuner", "get_channel")

    def test_shutdown_unpublishes_jini_bridges(self):
        home = build_smart_home()
        home.connect()
        bridged_before = sum(
            1 for item in home.lookup.items() if item.attributes.get("bridged")
        )
        assert bridged_before > 0
        home.mm.shutdown()
        home.run(5.0)
        bridged_after = sum(
            1 for item in home.lookup.items() if item.attributes.get("bridged")
        )
        assert bridged_after == 0

    def test_shutdown_is_idempotent(self):
        home = build_smart_home()
        home.connect()
        home.mm.shutdown()
        home.mm.shutdown()  # second call must not raise

    def test_shutdown_during_inflight_poll_does_not_resurrect_loop(self):
        """Regression: a poll reply arriving *after* shutdown used to
        reschedule the poll loop, resurrecting it (and the connections it
        keeps warm) forever.  Shut down at the exact instant a poll request
        is on the wire and its reply has not landed yet."""
        home = build_smart_home()
        home.connect()
        gateway = home.islands["havi"].gateway
        home.sim.run_until_complete(gateway.subscribe("x10.ON", lambda t, p, s: None))
        events = gateway.events
        before = events.polls_performed
        # Step to the instant the next poll request has just been issued;
        # its reply is still in flight.
        while events.polls_performed == before:
            assert home.sim.step(), "poll loop died before polling"
        home.mm.shutdown()
        frozen = events.polls_performed
        home.run(60.0)
        assert events.polls_performed == frozen
        assert not polled(events)
