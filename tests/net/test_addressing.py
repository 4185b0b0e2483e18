"""Tests for addresses and the network resolution tables."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError, NetworkError
from repro.net.addressing import BROADCAST, HwAddress, NodeAddress
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator


class TestAddresses:
    def test_node_address_roundtrip(self):
        address = NodeAddress("jini-eth", 3)
        assert NodeAddress.parse(str(address)) == address

    @given(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="-_"),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_node_address_roundtrip_property(self, segment, host):
        address = NodeAddress(segment, host)
        assert NodeAddress.parse(str(address)) == address

    @pytest.mark.parametrize(
        "bad", ["", "nohost", "seg/", "/3", "seg/abc", "seg/\u0661\u0662", "seg/\u00b2"]
    )
    def test_malformed_node_address_rejected(self, bad):
        with pytest.raises(ValueError):
            NodeAddress.parse(bad)

    def test_node_address_fields_and_keyword_construction(self):
        address = NodeAddress(segment="x10-pl", host=7)
        assert (address.segment, address.host) == ("x10-pl", 7)
        assert address == NodeAddress("x10-pl", 7)
        assert str(address) == "x10-pl/7"
        assert f"{address}" == "x10-pl/7"
        assert repr(address) == "NodeAddress(segment='x10-pl', host=7)"

    def test_node_address_is_immutable(self):
        address = NodeAddress("a", 1)
        with pytest.raises(AttributeError):
            address.host = 2  # type: ignore[misc]

    def test_node_address_parse_splits_at_last_slash(self):
        assert NodeAddress.parse("home/eth/12") == NodeAddress("home/eth", 12)

    @given(
        st.tuples(st.sampled_from(["a", "b", "jini-eth"]), st.integers(0, 50)),
        st.tuples(st.sampled_from(["a", "b", "jini-eth"]), st.integers(0, 50)),
    )
    def test_node_address_eq_hash_and_order_follow_the_fields(self, left, right):
        a, b = NodeAddress(*left), NodeAddress(*right)
        assert (a == b) == (left == right)
        assert (a != b) == (left != right)
        assert (a < b) == (left < right)
        assert (a <= b) == (left <= right)
        assert (a > b) == (left > right)
        if a == b:
            assert hash(a) == hash(b)

    def test_node_addresses_as_dict_and_set_keys(self):
        # Separately built equal addresses find each other's entries, also
        # inside the (address, port, port) keys of a connection table.
        table = {NodeAddress("s", host): host for host in range(5)}
        assert all(table[NodeAddress("s", host)] == host for host in range(5))
        assert NodeAddress("t", 1) not in table
        keys = {(NodeAddress("s", 1), 80, 49152), (NodeAddress("s", 1), 80, 49152)}
        assert keys == {(NodeAddress("s", 1), 80, 49152)}
        assert sorted({NodeAddress("b", 1), NodeAddress("a", 10), NodeAddress("a", 2)}) == [
            NodeAddress("a", 2),
            NodeAddress("a", 10),
            NodeAddress("b", 1),
        ]

    def test_node_address_equals_the_plain_tuple_of_its_fields(self):
        # An address is a named (segment, host) tuple, so it hashes and
        # compares in C; a plain tuple with the same fields is the same key.
        address = NodeAddress("a", 1)
        assert address == ("a", 1)
        assert hash(address) == hash(("a", 1))
        assert {("a", 1): "x"}[address] == "x"
        assert isinstance(address, tuple)

    def test_hw_address_renders_mac_style(self):
        assert str(HwAddress(0x0102)) == "01:02"
        assert str(BROADCAST) == "ff:ff"


class TestNetworkTables:
    def test_attach_assigns_sequential_hosts_per_segment(self):
        sim = Simulator()
        net = Network(sim)
        seg_a = net.create_segment(EthernetSegment, "a")
        seg_b = net.create_segment(EthernetSegment, "b")
        n1, n2 = net.create_node("n1"), net.create_node("n2")
        i1 = net.attach(n1, seg_a)
        i2 = net.attach(n2, seg_a)
        i3 = net.attach(n2, seg_b)  # multi-homed
        assert i1.node_address == NodeAddress("a", 1)
        assert i2.node_address == NodeAddress("a", 2)
        assert i3.node_address == NodeAddress("b", 1)

    def test_resolution_both_directions(self):
        sim = Simulator()
        net = Network(sim)
        seg = net.create_segment(EthernetSegment, "s")
        node = net.create_node("n")
        iface = net.attach(node, seg)
        assert net.resolve(iface.node_address) is iface
        assert net.resolve_hw(iface.hw_address) is iface

    def test_unknown_addresses_raise(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(AddressError):
            net.resolve(NodeAddress("ghost", 1))
        with pytest.raises(AddressError):
            net.resolve_hw(HwAddress(999))

    def test_duplicate_names_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.create_segment(EthernetSegment, "s")
        net.create_node("n")
        with pytest.raises(NetworkError):
            net.create_segment(EthernetSegment, "s")
        with pytest.raises(NetworkError):
            net.create_node("n")

    def test_interface_on_requires_attachment(self):
        sim = Simulator()
        net = Network(sim)
        seg = net.create_segment(EthernetSegment, "s")
        node = net.create_node("n")
        with pytest.raises(NetworkError):
            node.interface_on(seg)

    def test_hw_addresses_globally_unique(self):
        sim = Simulator()
        net = Network(sim)
        seg_a = net.create_segment(EthernetSegment, "a")
        seg_b = net.create_segment(EthernetSegment, "b")
        seen = set()
        for index in range(10):
            node = net.create_node(f"n{index}")
            iface = net.attach(node, seg_a if index % 2 else seg_b)
            assert iface.hw_address not in seen
            seen.add(iface.hw_address)
