"""The CM11A serial protocol.

The CM11A is the PC-to-powerline controller the paper's prototype used for
its X10 PCM (reference [15] is the CM11A programming protocol).  The byte
exchanges reproduced here follow that document:

PC transmits an X10 signal::

    PC  -> CM11A   [header, code]         header = dims<<3 | 0x04 | F
    CM11A -> PC    checksum               (header + code) & 0xFF
    PC  -> CM11A   0x00                   acknowledge
    CM11A -> PC    0x55                   interface ready (after powerline tx)

CM11A uploads received powerline data::

    CM11A -> PC    0x5A                   poll (repeated until answered)
    PC  -> CM11A   0xC3                   poll acknowledge
    CM11A -> PC    [size, fmap, bytes...] fmap bit i set = byte i is a function

A bad checksum makes the PC resend, which the failure-injection tests
exercise by corrupting the serial link.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ChecksumError, NetworkError, X10Error
from repro.net.frames import Frame
from repro.net.network import Network
from repro.net.node import Interface, Node
from repro.net.segment import PowerlineSegment, Segment, SerialLink
from repro.net.simkernel import SimFuture
from repro.x10.codes import X10Address, X10Function
from repro.x10.powerline import PowerlineTransceiver, X10Signal

PROTO_SERIAL = "serial"

_ACK = 0x00
_READY = 0x55
_POLL = 0x5A
_POLL_ACK = 0xC3

_HDR_ALWAYS = 0x04
_HDR_FUNCTION = 0x02

_POLL_INTERVAL = 0.5
_RX_BUFFER_LIMIT = 8
_MAX_SEND_RETRIES = 3


def make_header(is_function: bool, dims: int = 0) -> int:
    """CM11A transmission header byte: dims<<3 | 0x04 | function bit."""
    header = _HDR_ALWAYS | ((dims & 0x1F) << 3)
    if is_function:
        header |= _HDR_FUNCTION
    return header


class _SerialPort:
    """Byte-oriented endpoint on a serial link."""

    def __init__(self, network: Network, node: Node, link: SerialLink | Segment | str) -> None:
        if isinstance(link, str):
            link = network.segment(link)
        self.interface: Interface = network.attach(node, link)
        self._on_byte: Callable[[int], None] | None = None
        node.register_protocol(PROTO_SERIAL, self._on_frame)

    def set_receiver(self, on_byte: Callable[[int], None]) -> None:
        self._on_byte = on_byte

    def write(self, data: bytes) -> None:
        try:
            self.interface.broadcast(PROTO_SERIAL, data)
        except NetworkError:
            pass  # writing into a dead serial line loses bytes, silently

    def _on_frame(self, interface: Interface, frame: Frame) -> None:
        if self._on_byte is None:
            return
        for byte in frame.payload:
            self._on_byte(byte)


class Cm11aInterface:
    """The CM11A box: bridges the serial link and the powerline."""

    def __init__(
        self,
        network: Network,
        name: str,
        serial_link: SerialLink | str,
        powerline: PowerlineSegment | str,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.node = network.create_node(name)
        self.port = _SerialPort(network, self.node, serial_link)
        self.port.set_receiver(self._on_serial_byte)
        self.transceiver = PowerlineTransceiver(network, self.node, powerline)
        self.transceiver.on_signal(self._on_powerline_signal)
        # Serial-side state.
        self._tx_pending: list[int] = []  # bytes of an in-progress PC transmission
        self._awaiting_ack: tuple[int, int] | None = None
        self._rx_buffer: list[tuple[int, bool]] = []  # (code byte, is_function)
        self._polling = False
        self.transmissions = 0
        self.uploads = 0

    # -- serial side ------------------------------------------------------------

    def _on_serial_byte(self, byte: int) -> None:
        if byte == _POLL_ACK and self._polling:
            self._polling = False
            self._upload_buffer()
            return
        if self._awaiting_ack is not None:
            if byte == _ACK:
                header, code = self._awaiting_ack
                self._awaiting_ack = None
                self._transmit_on_powerline(header, code)
            else:
                # PC rejected the checksum: drop the staged transmission.
                self._awaiting_ack = None
            return
        self._tx_pending.append(byte)
        if len(self._tx_pending) >= 2:
            header, code = self._tx_pending[0], self._tx_pending[1]
            self._tx_pending = self._tx_pending[2:]
            self._awaiting_ack = (header, code)
            self.port.write(bytes([(header + code) & 0xFF]))

    def _transmit_on_powerline(self, header: int, code: int) -> None:
        is_function = bool(header & _HDR_FUNCTION)
        dims = (header >> 3) & 0x1F
        flags = (0x01 | ((dims & 0x1F) << 1)) if is_function else 0
        payload = bytes([code, flags])
        try:
            signal = X10Signal.decode(payload)
        except X10Error:
            return  # unencodable; the real box would transmit garbage
        done_at = self.transceiver.transmit(signal)
        self.transmissions += 1
        # Interface-ready byte goes out once the powerline transmission ends.
        delay = max(0.0, done_at - self.sim.now)
        self.sim.schedule(delay, self.port.write, bytes([_READY]))

    # -- powerline side -----------------------------------------------------------

    def _on_powerline_signal(self, signal: X10Signal) -> None:
        code = signal.encode()[0]
        # Our own transmissions do not echo back (segments don't loop), so
        # anything arriving here came from another transmitter.
        if len(self._rx_buffer) >= _RX_BUFFER_LIMIT:
            return  # real CM11A overruns silently
        self._rx_buffer.append((code, signal.is_function))
        self._start_polling()

    def _start_polling(self) -> None:
        if self._polling or not self._rx_buffer:
            return
        self._polling = True
        self._poll_once()

    def _poll_once(self) -> None:
        if not self._polling:
            return
        self.port.write(bytes([_POLL]))
        self.sim.schedule(_POLL_INTERVAL, self._poll_once)

    def _upload_buffer(self) -> None:
        buffered, self._rx_buffer = self._rx_buffer[:_RX_BUFFER_LIMIT], []
        fmap = 0
        data = []
        for index, (code, is_function) in enumerate(buffered):
            if is_function:
                fmap |= 1 << index
            data.append(code)
        self.uploads += 1
        self.port.write(bytes([len(data), fmap] + data))


class Cm11aDriver:
    """PC-side driver: commands out, received events in.

    The driver attaches an *existing* node (typically the gateway PC) to the
    serial link; the node may have other interfaces.
    """

    def __init__(self, network: Network, node: Node, serial_link: SerialLink | str) -> None:
        self.network = network
        self.sim = network.sim
        self.node = node
        self.port = _SerialPort(network, node, serial_link)
        self.port.set_receiver(self._on_serial_byte)
        self._event_listeners: list[Callable[[X10Signal], None]] = []
        # Driver transmit state machine.
        self._state = "idle"  # idle | wait_checksum | wait_ready | rx_head | rx_data
        self._queue: list[tuple[int, int, SimFuture, int]] = []
        self._current: tuple[int, int, SimFuture, int] | None = None
        self._command_queue: list[tuple[X10Address, X10Function, int, SimFuture]] = []
        self._command_active = False
        self._rx_expect = 0
        self._rx_bytes: list[int] = []
        self.commands_sent = 0
        self.events_received = 0
        self.checksum_retries = 0

    def on_event(self, listener: Callable[[X10Signal], None]) -> None:
        """Register for signals the CM11A hears on the powerline."""
        self._event_listeners.append(listener)

    # -- transmit API ----------------------------------------------------------

    def send_raw(self, header: int, code: int) -> SimFuture:
        """Send one [header, code] transmission; resolves on 0x55 ready."""
        future: SimFuture = SimFuture()
        self._queue.append((header, code, future, 0))
        self._pump()
        return future

    def send_signal(self, signal: X10Signal) -> SimFuture:
        header = make_header(signal.is_function, signal.dims)
        return self.send_raw(header, signal.encode()[0])

    def send_command(self, address: X10Address, function: X10Function, dims: int = 0) -> SimFuture:
        """Standard command: address transmission then function transmission.

        Commands are serialised whole: interleaving two commands' address
        and function frames would let the second address frame *deselect*
        the first command's unit on the powerline (X10's selection
        semantics), so the next command starts only after this command's
        function frame is on the wire.  Resolves when the function's ready
        byte arrives.
        """
        result: SimFuture = SimFuture()
        self._command_queue.append((address, function, dims, result))
        self.commands_sent += 1
        self._pump_commands()
        return result

    def _pump_commands(self) -> None:
        if self._command_active or not self._command_queue:
            return
        self._command_active = True
        address, function, dims, result = self._command_queue.pop(0)

        def finish(exc: BaseException | None) -> None:
            self._command_active = False
            if exc is not None:
                result.set_exception(exc)
            else:
                result.set_result(None)
            self._pump_commands()

        def after_address(done: SimFuture) -> None:
            exc = done.exception()
            if exc is not None:
                finish(exc)
                return
            function_future = self.send_signal(
                X10Signal.for_function(address.house, function, dims)
            )
            function_future.add_done_callback(lambda f: finish(f.exception()))

        self.send_signal(X10Signal.for_address(address)).add_done_callback(after_address)

    # -- serial receive state machine --------------------------------------------

    def _pump(self) -> None:
        if self._state != "idle" or self._current is not None or not self._queue:
            return
        self._current = self._queue.pop(0)
        header, code, _future, _retries = self._current
        self._state = "wait_checksum"
        self.port.write(bytes([header, code]))

    def _on_serial_byte(self, byte: int) -> None:
        if self._state == "wait_checksum":
            self._handle_checksum(byte)
        elif self._state == "wait_ready":
            if byte == _READY:
                current, self._current = self._current, None
                self._state = "idle"
                current[2].set_result(None)
                self._pump()
            elif byte == _POLL:
                pass  # box will poll again once we're idle
        elif self._state == "rx_head":
            self._rx_expect = byte + 1  # size byte counts data; fmap follows
            self._rx_bytes = []
            self._state = "rx_data"
        elif self._state == "rx_data":
            self._rx_bytes.append(byte)
            if len(self._rx_bytes) >= self._rx_expect:
                self._finish_upload()
        elif byte == _POLL:
            self._state = "rx_head"
            self.port.write(bytes([_POLL_ACK]))

    def _handle_checksum(self, byte: int) -> None:
        header, code, future, retries = self._current
        expected = (header + code) & 0xFF
        if byte == expected:
            self._state = "wait_ready"
            self.port.write(bytes([_ACK]))
            return
        # Checksum mismatch: abort this attempt and retry.
        self.checksum_retries += 1
        self.port.write(bytes([0xFF]))  # anything but 0x00 cancels
        self._current = None
        self._state = "idle"
        if retries + 1 >= _MAX_SEND_RETRIES:
            future.set_exception(
                ChecksumError(
                    f"checksum failed {retries + 1} times (got 0x{byte:02x}, "
                    f"want 0x{expected:02x})"
                )
            )
        else:
            self._queue.insert(0, (header, code, future, retries + 1))
        self._pump()

    def _finish_upload(self) -> None:
        fmap = self._rx_bytes[0]
        data = self._rx_bytes[1:]
        self._state = "idle"
        self._rx_bytes = []
        for index, code in enumerate(data):
            is_function = bool(fmap & (1 << index))
            flags = 0x01 if is_function else 0x00
            try:
                signal = X10Signal.decode(bytes([code, flags]))
            except X10Error:
                continue
            self.events_received += 1
            for listener in list(self._event_listeners):
                listener(signal)
        self._pump()
