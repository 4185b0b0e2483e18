"""Broadcast medium models.

Each segment serialises transmissions (one frame on the wire at a time),
charges transmission time = bits / bandwidth (payload plus the segment's
per-frame header overhead), adds propagation delay, and
delivers to every other attached interface that takes the frame: the
addressee, every interface for a broadcast, and promiscuous interfaces.
An arrival is scheduled only for those; the receiver still checks that it
is up when the frame arrives.  Subclasses fix the parameters to the media
the paper names: 10 Mb/s Ethernet, 400 Mb/s IEEE1394, the X10 powerline
(which signals at one bit per AC zero-crossing, i.e. ~120 b/s raw, ~0.9 s
for a complete doubled command), and the RS-232 serial link between a PC
and a CM11A controller.

An optional loss model (a callable returning True to drop a frame) supports
the failure-injection tests; it must be driven by an explicitly seeded RNG so
runs stay deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import NetworkError
from repro.net.addressing import BROADCAST
from repro.net.frames import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.monitor import TrafficMonitor
    from repro.net.node import Interface
    from repro.net.simkernel import Simulator


_BROADCAST_VALUE = BROADCAST.value


class Segment:
    """A shared broadcast medium with finite bandwidth.

    Parameters
    ----------
    sim:
        The simulation kernel the segment schedules deliveries on.
    name:
        Unique segment name; also the prefix of node addresses on it.
    bandwidth_bps:
        Signalling rate in bits per second.
    propagation_delay:
        One-way propagation delay in virtual seconds.
    header_overhead:
        Per-frame framing bytes added to the payload when computing
        transmission time and traffic accounting.
    """

    kind = "generic"
    #: Largest transport frame payload the medium carries, in bytes.
    mtu = 1500

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        bandwidth_bps: float,
        propagation_delay: float = 5e-6,
        header_overhead: int = 18,
    ) -> None:
        if bandwidth_bps <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.header_overhead = header_overhead
        self.interfaces: list["Interface"] = []
        #: Hardware address value -> attached interface, for unicast.
        self._by_hw: dict[int, "Interface"] = {}
        #: True while some attached interface is promiscuous.
        self._sniffed = False
        self.monitors: list["TrafficMonitor"] = []
        self.loss_model: Callable[[Frame], bool] | None = None
        #: Per-receiver reachability hook ``(sender, receiver) -> deliverable``.
        #: Unlike ``loss_model`` (whole-frame, counted as a drop) this models
        #: partitions: a broadcast still reaches same-side interfaces.
        self.delivery_filter: Callable[["Interface", "Interface"], bool] | None = None
        self._busy_until = 0.0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_blocked = 0
        #: Per-receiver accounting for conservation checks: every receiver a
        #: non-dropped frame *could* reach is an opportunity, and each one is
        #: either delivered or blocked (by the delivery filter), so
        #: ``frames_delivered + frames_blocked == delivery_opportunities``
        #: holds at every instant — the testkit's traffic-conservation oracle.
        self.frames_delivered = 0
        self.delivery_opportunities = 0

    # -- topology -----------------------------------------------------------

    def attach(self, interface: "Interface") -> None:
        if interface in self.interfaces:
            raise NetworkError(f"{interface} already attached to {self.name}")
        if interface.hw_address.value in self._by_hw:
            raise NetworkError(f"hardware address {interface.hw_address} already on {self.name}")
        self.interfaces.append(interface)
        self._by_hw[interface.hw_address.value] = interface
        self._note_promiscuous()

    def _note_promiscuous(self) -> None:
        """Re-read the attached interfaces' ``promiscuous`` flags (an
        interface calls this when its flag changes)."""
        self._sniffed = any(interface.promiscuous for interface in self.interfaces)

    # -- transmission -------------------------------------------------------

    def transmit(self, sender: "Interface", frame: Frame) -> float:
        """Queue ``frame`` for transmission from ``sender``.

        Returns the virtual time at which the last bit leaves the wire.
        Transmissions are serialised: a busy medium delays the next frame
        (a simple non-colliding MAC; the powerline subclass adds loss).

        Every other attached interface is a delivery opportunity, delivered
        or blocked by ``delivery_filter``.  An arrival is scheduled only for
        the delivered ones that take the frame — by the rule
        :meth:`~repro.net.node.Interface.deliver` applies on arrival — as
        the rest would discard it.  A unicast with no filter and no
        promiscuous interface attached finds its addressee by one lookup
        and counts the other opportunities at once.
        """
        size = len(frame.payload) + self.header_overhead
        start = self.sim.now
        if self._busy_until > start:
            start = self._busy_until
        end = start + size * 8 / self.bandwidth_bps
        self._busy_until = end
        self.frames_sent += 1
        self.bytes_sent += size

        loss_model = self.loss_model
        dropped = loss_model is not None and bool(loss_model(frame))
        for monitor in self.monitors:
            monitor.record(self, frame, size, dropped)
        if not dropped:
            arrival = end + self.propagation_delay
            dst = frame.dst.value
            broadcast = dst == _BROADCAST_VALUE
            delivery_filter = self.delivery_filter
            if not broadcast and delivery_filter is None and not self._sniffed:
                others = len(self.interfaces) - 1
                self.delivery_opportunities += others
                self.frames_delivered += others
                receiver = self._by_hw.get(dst)
                if receiver is not None and receiver is not sender:
                    self.sim.at(arrival, receiver.deliver, frame)
                return end
            for interface in list(self.interfaces):
                if interface is sender:
                    continue
                self.delivery_opportunities += 1
                if delivery_filter is not None and not delivery_filter(sender, interface):
                    self.frames_blocked += 1
                    continue
                self.frames_delivered += 1
                if broadcast or interface.hw_address.value == dst or interface.promiscuous:
                    self.sim.at(arrival, interface.deliver, frame)
        return end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.bandwidth_bps:g}bps>"


class EthernetSegment(Segment):
    """10 Mb/s Ethernet — the paper's Jini island and Internet backbone."""

    kind = "ethernet"
    mtu = 1500

    def __init__(self, sim: "Simulator", name: str, bandwidth_bps: float = 10e6):
        super().__init__(
            sim,
            name,
            bandwidth_bps=bandwidth_bps,
            propagation_delay=5e-6,
            header_overhead=18,
        )


class IEEE1394Segment(Segment):
    """400 Mb/s IEEE1394 (FireWire) — the HAVi island.

    Only the asynchronous packet service is modelled here; isochronous
    channel bookkeeping lives in :mod:`repro.havi.bus1394`, which wraps this
    segment.
    """

    kind = "ieee1394"
    mtu = 2048

    def __init__(self, sim: "Simulator", name: str, bandwidth_bps: float = 400e6):
        super().__init__(
            sim,
            name,
            bandwidth_bps=bandwidth_bps,
            propagation_delay=1e-6,
            header_overhead=24,
        )


class PowerlineSegment(Segment):
    """The X10 powerline.

    X10 signals one bit per AC zero-crossing (120/s at 60 Hz); a standard
    command is an 11-cycle frame sent twice, so a complete address+function
    sequence takes roughly 0.8–0.9 s.  We model this with a very low
    bandwidth and per-frame overhead chosen so that one 2-byte X10 frame
    (doubled) costs ~0.37 s, matching the real medium's order of magnitude.
    """

    kind = "powerline"
    mtu = 4

    def __init__(self, sim: "Simulator", name: str, bandwidth_bps: float = 120.0):
        super().__init__(
            sim,
            name,
            bandwidth_bps=bandwidth_bps,
            propagation_delay=1e-3,
            header_overhead=3,  # start pattern + redundant retransmission
        )


class SerialLink(Segment):
    """Point-to-point RS-232 link (PC to CM11A X10 controller), 4800 baud as
    the real CM11A uses.  Only two interfaces may attach."""

    kind = "serial"
    mtu = 64

    def __init__(self, sim: "Simulator", name: str, bandwidth_bps: float = 4800.0):
        super().__init__(
            sim,
            name,
            bandwidth_bps=bandwidth_bps,
            propagation_delay=1e-6,
            header_overhead=2,  # start/stop bits amortised
        )

    def attach(self, interface: "Interface") -> None:
        if len(self.interfaces) >= 2:
            raise NetworkError(f"serial link {self.name} already has two endpoints")
        super().attach(interface)
