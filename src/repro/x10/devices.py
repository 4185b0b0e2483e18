"""X10 device modules on the powerline.

Modules implement real X10 selection semantics: an address frame *selects*
matching units (and deselects other units of the same house); a following
function frame acts on all currently selected units of its house code.
``ALL_UNITS_OFF`` / ``ALL_LIGHTS_ON`` act house-wide regardless of
selection.
"""

from __future__ import annotations

from repro.net.network import Network
from repro.net.segment import PowerlineSegment
from repro.x10.codes import X10Address, X10Function
from repro.x10.controller import DIM_STEPS
from repro.x10.powerline import PowerlineTransceiver, X10Signal


class X10Module:
    """Base receiver module at one address."""

    IS_LIGHT = False

    def __init__(self, network: Network, name: str, powerline: PowerlineSegment | str, address: X10Address) -> None:
        self.network = network
        self.address = address
        self.node = network.create_node(name)
        self.transceiver = PowerlineTransceiver(network, self.node, powerline)
        self.transceiver.on_signal(self._on_signal)
        self.selected = False
        self.on = False

    # -- powerline protocol ------------------------------------------------------

    def _on_signal(self, signal: X10Signal) -> None:
        if not signal.is_function:
            if signal.address.house != self.address.house:
                return
            self.selected = signal.address.unit == self.address.unit
            return
        if signal.house != self.address.house:
            return
        function = signal.function
        if function == X10Function.ALL_UNITS_OFF:
            self._apply_off()
        elif function == X10Function.ALL_LIGHTS_ON and self.IS_LIGHT:
            self._apply_on()
        elif function == X10Function.ALL_LIGHTS_OFF and self.IS_LIGHT:
            self._apply_off()
        elif self.selected:
            self.handle_function(function, signal.dims)

    def handle_function(self, function: X10Function, dims: int) -> None:
        if function == X10Function.ON:
            self._apply_on()
        elif function == X10Function.OFF:
            self._apply_off()
        elif function == X10Function.STATUS_REQUEST:
            # Two-way X10: the addressed module answers with a status
            # function frame (house-wide; the asker correlates by house).
            reply = X10Function.STATUS_ON if self.on else X10Function.STATUS_OFF
            self.transceiver.transmit_function(self.address.house, reply)

    def _apply_on(self) -> None:
        self.on = True

    def _apply_off(self) -> None:
        self.on = False


class ApplianceModule(X10Module):
    """Relay module: on/off only (dims are ignored, as on real hardware)."""


class LampModule(X10Module):
    """Lamp module: on/off plus 22-step dimming."""

    IS_LIGHT = True

    def __init__(self, network, name, powerline, address):
        super().__init__(network, name, powerline, address)
        self.level = 0  # percent, 0-100

    def handle_function(self, function: X10Function, dims: int) -> None:
        if function == X10Function.DIM:
            self.on = True
            self.level = max(0, self.level - self._percent(dims))
        elif function == X10Function.BRIGHT:
            self.on = True
            self.level = min(100, self.level + self._percent(dims))
        else:
            super().handle_function(function, dims)

    def _apply_on(self) -> None:
        self.on = True
        self.level = 100

    def _apply_off(self) -> None:
        self.on = False
        self.level = 0

    @staticmethod
    def _percent(dims: int) -> int:
        return round(max(1, dims) * 100 / DIM_STEPS)


class MotionSensor:
    """PIR sensor: transmits its address + ON when motion is detected (and
    OFF after a quiet period, like real X10 sensors)."""

    def __init__(
        self,
        network: Network,
        name: str,
        powerline: PowerlineSegment | str,
        address: X10Address,
        off_delay: float = 30.0,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.address = address
        self.off_delay = off_delay
        self.node = network.create_node(name)
        self.transceiver = PowerlineTransceiver(network, self.node, powerline)
        self.triggers = 0
        self._off_event = None

    def trigger(self) -> None:
        """Simulate motion in front of the sensor."""
        self.triggers += 1
        self.transceiver.transmit_command(self.address, X10Function.ON)
        if self._off_event is not None:
            self._off_event.cancel()
        self._off_event = self.sim.schedule(self.off_delay, self._send_off)

    def _send_off(self) -> None:
        self._off_event = None
        self.transceiver.transmit_command(self.address, X10Function.OFF)


class RemoteHandset:
    """The handheld X10 remote of the paper's Figure 5.

    Each button maps to an (address, function) pair; pressing it transmits
    the standard two-frame sequence on the powerline (via the plug-in
    transceiver module real handsets use).
    """

    def __init__(self, network: Network, name: str, powerline: PowerlineSegment | str) -> None:
        self.network = network
        self.node = network.create_node(name)
        self.transceiver = PowerlineTransceiver(network, self.node, powerline)
        self.presses: list[tuple[X10Address, X10Function]] = []

    def press(self, address: X10Address, function: X10Function = X10Function.ON, dims: int = 0) -> float:
        """Press a button; returns the virtual time the powerline frames
        finish transmitting."""
        self.presses.append((address, function))
        return self.transceiver.transmit_command(address, function, dims)

    def press_on(self, address: X10Address) -> float:
        return self.press(address, X10Function.ON)

    def press_off(self, address: X10Address) -> float:
        return self.press(address, X10Function.OFF)
