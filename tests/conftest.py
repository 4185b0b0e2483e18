"""Shared fixtures for the whole suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.net.network import Network

#: The nightly CI job's deeper search (``--hypothesis-profile nightly``);
#: tier-1 runs keep hypothesis's default profile.
settings.register_profile("nightly", max_examples=5000)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--testkit-seeds",
        type=int,
        default=0,
        metavar="N",
        help="Run the repro.testkit sweep: N fresh seeds beyond the fixed "
        "corpus plus the first N seeds of every band (0 disables the sweep; "
        "CI nightly uses 200).",
    )
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator
from repro.net.transport import TransportStack


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def net(sim: Simulator) -> Network:
    return Network(sim)


@pytest.fixture
def eth(net: Network) -> EthernetSegment:
    return net.create_segment(EthernetSegment, "eth0")


def make_host(net: Network, name: str, segment) -> TransportStack:
    """Create a node attached to ``segment`` with a transport stack."""
    node = net.create_node(name)
    net.attach(node, segment)
    return TransportStack(node, net)


@pytest.fixture
def two_hosts(net: Network, eth: EthernetSegment) -> tuple[TransportStack, TransportStack]:
    return make_host(net, "a", eth), make_host(net, "b", eth)
