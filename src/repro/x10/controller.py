"""High-level X10 controller API, built on the CM11A driver.

This is the layer the X10 PCM talks to: named operations per device
address, percentage dims, and decoded powerline events (motion sensors,
handset presses) delivered as ``(address, function)`` pairs.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import X10Error
from repro.net.network import Network
from repro.net.node import Node
from repro.net.segment import SerialLink
from repro.net.simkernel import SimFuture
from repro.x10.cm11a import Cm11aDriver
from repro.x10.codes import X10Address, X10Function
from repro.x10.powerline import X10Signal

#: Full dim range is 22 steps in the CM11A protocol.
DIM_STEPS = 22


class X10Controller:
    """Drives the powerline through a CM11A on a serial link."""

    def __init__(self, network: Network, node: Node, serial_link: SerialLink | str) -> None:
        self.driver = Cm11aDriver(network, node, serial_link)
        self.driver.on_event(self._on_signal)
        self._event_listeners: list[Callable[[X10Address, X10Function, int], None]] = []
        self._last_address: dict[str, X10Address] = {}
        self._status_waiters: list[tuple[str, SimFuture]] = []

    # -- commands ------------------------------------------------------------

    def turn_on(self, address: X10Address) -> SimFuture:
        return self.driver.send_command(address, X10Function.ON)

    def turn_off(self, address: X10Address) -> SimFuture:
        return self.driver.send_command(address, X10Function.OFF)

    def dim(self, address: X10Address, percent: int) -> SimFuture:
        """Dim by ``percent`` of full range (rounded to CM11A steps)."""
        return self.driver.send_command(
            address, X10Function.DIM, dims=self._steps(percent)
        )

    def brighten(self, address: X10Address, percent: int) -> SimFuture:
        return self.driver.send_command(
            address, X10Function.BRIGHT, dims=self._steps(percent)
        )

    def all_units_off(self, house: str) -> SimFuture:
        return self.driver.send_signal(
            X10Signal.for_function(house, X10Function.ALL_UNITS_OFF)
        )

    def all_lights_on(self, house: str) -> SimFuture:
        return self.driver.send_signal(
            X10Signal.for_function(house, X10Function.ALL_LIGHTS_ON)
        )

    def status_request(self, address: X10Address, timeout: float = 15.0) -> SimFuture:
        """Two-way X10: ask the module at ``address`` whether it is on.

        Sends ``STATUS_REQUEST`` and resolves to True/False from the
        module's ``STATUS_ON``/``STATUS_OFF`` reply, or fails with
        :class:`repro.errors.X10Error` after ``timeout`` virtual seconds
        (module absent or not two-way capable).
        """
        result: SimFuture = SimFuture()
        sim = self.driver.sim
        house = address.house
        pending = (house, result)
        self._status_waiters.append(pending)

        def give_up() -> None:
            if not result.done():
                self._status_waiters.remove(pending)
                result.set_exception(
                    X10Error(f"no status reply from {address} within {timeout}s")
                )

        timer = sim.schedule(timeout, give_up)
        result.add_done_callback(lambda _f: timer.cancel())
        self.driver.send_command(address, X10Function.STATUS_REQUEST)
        return result

    # -- events ------------------------------------------------------------

    def on_event(self, listener: Callable[[X10Address, X10Function, int], None]) -> None:
        """``listener(address, function, dims)`` per decoded powerline event.

        X10 function frames carry only the house code; the controller pairs
        each function with the most recent address frame seen for that
        house, which is how real X10 receivers resolve targets.
        """
        self._event_listeners.append(listener)

    def _on_signal(self, signal: X10Signal) -> None:
        if not signal.is_function:
            self._last_address[signal.house] = signal.address
            return
        if signal.function in (X10Function.STATUS_ON, X10Function.STATUS_OFF):
            self._resolve_status(signal)
            return
        address = self._last_address.get(signal.house)
        if address is None:
            return  # function with no addressed unit: house-wide only
        for listener in list(self._event_listeners):
            listener(address, signal.function, signal.dims)

    def _resolve_status(self, signal: X10Signal) -> None:
        for index, (house, future) in enumerate(self._status_waiters):
            if house == signal.house and not future.done():
                del self._status_waiters[index]
                future.set_result(signal.function == X10Function.STATUS_ON)
                return

    @staticmethod
    def _steps(percent: int) -> int:
        percent = max(0, min(100, int(percent)))
        return max(1, round(percent * DIM_STEPS / 100))
