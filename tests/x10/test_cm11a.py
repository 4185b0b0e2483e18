"""Tests for the CM11A serial protocol and the high-level controller."""

import pytest

from repro.errors import ChecksumError
from repro.net.frames import Frame
from repro.net.monitor import TrafficMonitor
from repro.x10.cm11a import make_header
from repro.x10.codes import X10Address, X10Function
from repro.x10.devices import LampModule, MotionSensor, RemoteHandset
from repro.x10.powerline import PowerlineTransceiver


class TestHeaderByte:
    def test_address_header(self):
        assert make_header(is_function=False) == 0x04

    def test_function_header(self):
        assert make_header(is_function=True) == 0x06

    def test_dim_bits(self):
        assert make_header(is_function=True, dims=11) == (11 << 3) | 0x06


class TestTransmitPath:
    def test_command_drives_powerline(self, sim, net, powerline, x10_setup):
        cm11a, controller = x10_setup
        lamp = LampModule(net, "lamp", powerline, X10Address("A", 1))
        sim.run_until_complete(controller.turn_on(X10Address("A", 1)))
        assert lamp.on
        assert cm11a.transmissions == 2  # address + function

    def test_serial_handshake_byte_sequence(self, sim, net, powerline, serial, x10_setup):
        """Verify the documented [hdr,code] / checksum / 0x00 / 0x55 dance
        happens on the serial wire."""
        cm11a, controller = x10_setup
        monitor = TrafficMonitor(trace_enabled=True).watch(serial)
        sim.run_until_complete(controller.turn_on(X10Address("A", 1)))
        # 2 transmissions x 4 serial exchanges ([hdr,code], cksum, ack, ready)
        assert monitor.stats["serial"].frames == 8

    def test_commands_queue_when_busy(self, sim, net, powerline, x10_setup):
        cm11a, controller = x10_setup
        lamp_a = LampModule(net, "a", powerline, X10Address("A", 1))
        lamp_b = LampModule(net, "b", powerline, X10Address("A", 2))
        future_a = controller.turn_on(X10Address("A", 1))
        future_b = controller.turn_on(X10Address("A", 2))
        sim.run_until_complete(future_a)
        sim.run_until_complete(future_b)
        assert lamp_a.on and lamp_b.on

    def test_dim_percent_mapped_to_steps(self, sim, net, powerline, x10_setup):
        cm11a, controller = x10_setup
        lamp = LampModule(net, "lamp", powerline, X10Address("A", 1))
        sim.run_until_complete(controller.turn_on(X10Address("A", 1)))
        sim.run_until_complete(controller.dim(X10Address("A", 1), 50))
        assert 40 <= lamp.level <= 60

    def test_checksum_corruption_retried_then_fails(self, sim, net, powerline, serial, x10_setup):
        cm11a, controller = x10_setup

        # Corrupt every serial frame from the CM11A to the PC: flip bytes of
        # single-byte checksum frames.
        original_transmit = serial.transmit

        def corrupting_transmit(sender, frame):
            if sender is cm11a.port.interface and len(frame.payload) == 1:
                frame = Frame(frame.src, frame.dst, frame.protocol,
                              bytes([frame.payload[0] ^ 0xFF]), frame.note)
            return original_transmit(sender, frame)

        serial.transmit = corrupting_transmit
        future = controller.turn_on(X10Address("A", 1))
        with pytest.raises(ChecksumError):
            sim.run_until_complete(future, timeout=300.0)
        assert controller.driver.checksum_retries >= 3


class TestReceivePath:
    def test_handset_press_surfaces_as_event(self, sim, net, powerline, x10_setup):
        cm11a, controller = x10_setup
        events = []
        controller.on_event(lambda a, f, d: events.append((str(a), f)))
        handset = RemoteHandset(net, "handset", powerline)
        handset.press_on(X10Address("C", 7))
        sim.run_for(5.0)
        assert events == [("C7", X10Function.ON)]

    def test_motion_sensor_events(self, sim, net, powerline, x10_setup):
        cm11a, controller = x10_setup
        events = []
        controller.on_event(lambda a, f, d: events.append((str(a), f)))
        sensor = MotionSensor(net, "pir", powerline, X10Address("A", 9), off_delay=8.0)
        sensor.trigger()
        sim.run_for(20.0)
        assert ("A9", X10Function.ON) in events
        assert ("A9", X10Function.OFF) in events

    def test_multiple_events_batched_in_one_upload(self, sim, net, powerline, x10_setup):
        cm11a, controller = x10_setup
        events = []
        controller.on_event(lambda a, f, d: events.append(str(a)))
        handset = RemoteHandset(net, "handset", powerline)
        handset.press_on(X10Address("A", 1))
        handset.press_on(X10Address("A", 2))
        sim.run_for(10.0)
        assert events == ["A1", "A2"]

    def test_function_without_address_not_reported_per_unit(self, sim, net, powerline, x10_setup):
        cm11a, controller = x10_setup
        events = []
        controller.on_event(lambda a, f, d: events.append((str(a), f)))
        sender_node = net.create_node("bare")
        sender = PowerlineTransceiver(net, sender_node, powerline)
        sender.transmit_function("D", X10Function.ON)  # no preceding address
        sim.run_for(5.0)
        assert events == []

    def test_rx_buffer_overrun_drops_silently(self, sim, net, powerline, serial, x10_setup):
        cm11a, controller = x10_setup
        # Detach the PC by breaking the serial link so polls are never
        # answered; flood the powerline.
        for iface in list(serial.interfaces):
            iface.up = False
        handset = RemoteHandset(net, "handset", powerline)
        for unit in range(1, 13):
            handset.press_on(X10Address("A", ((unit - 1) % 16) + 1))
        sim.run_for(60.0)
        # Buffer capped; the box survives.
        assert len(cm11a._rx_buffer) <= 8
