"""A bridged invoke is freed by reference counting, on either wire.

Every piece of per-call state on the bridged path (the gateway's remote
call, the resilience policy's attempt loop, the HTTP exchange and the
transport's connect) lives in a record that no other object of the call
points back to, so an invoke leaves the cycle collector exactly what its
bare SOAP exchange leaves: nothing.  Garbage that only the collector can
free makes it run full collections over a world with thousands of live
objects.
"""

from __future__ import annotations

import gc

import pytest

from repro.apps.home import build_smart_home
from repro.soap.http import LEGACY_INTERCHANGE, REACTOR_INTERCHANGE
from repro.soap.wsdl import parse_location


def garbage_of(run) -> int:
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "interchange", [LEGACY_INTERCHANGE, REACTOR_INTERCHANGE], ids=["legacy", "modern"]
)
def test_bridged_invoke_leaves_the_garbage_of_its_bare_exchange(interchange):
    home = build_smart_home(with_havi=False, with_mail=False, interchange=interchange)
    home.connect()
    home.run(5.0)
    sim = home.sim
    gateway = home.island("jini").gateway
    # The first call fills the directory cache and, on the modern wire,
    # opens the pooled connection.
    assert home.invoke_from("jini", "X10_A1_hall_lamp", "turn_on") is True
    location = sim.run_until_complete(gateway.vsr.find_by_name("X10_A1_hall_lamp")).location
    address, port, service = parse_location(location)

    def bare() -> None:
        call = gateway.protocol.client.call(address, service, "turn_on", [], port=port)
        assert sim.run_until_complete(call) is True

    def invoke() -> None:
        assert home.invoke_from("jini", "X10_A1_hall_lamp", "turn_on") is True

    assert garbage_of(bare) == 0
    assert garbage_of(invoke) == 0
