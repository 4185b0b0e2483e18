"""Subscriber side of the push event channel.

The channel inverts the HTTP event path: instead of polling
``fetch_events`` every interval, the subscriber POSTs a *wait*
(:func:`repro.soap.envelope.build_event_wait`) to the publisher's
``/events`` route and the publisher holds the exchange open until an
event fires — then answers with one batched frame and the subscriber
immediately re-arms.  Notification latency collapses to the network
round trip and the idle wire carries nothing but an occasional keepalive
(an empty frame after :data:`EVENT_MAX_HOLD` seconds of silence).

:class:`EventChannelClient` owns a dedicated :class:`~repro.soap.http.
HttpClient` rather than sharing the gateway's RPC pool: the pool runs one
exchange in flight per destination, so a parked wait would head-of-line
block every bridged call to that gateway.  The dedicated client runs
the gateway's modern wire, but waits carry no negotiation headers: the
``/events`` route itself implies the modern wire.  The publisher's hold
stays well inside the exchange watchdog, so a healthy idle channel is
never reaped as wedged.

Death — transport failure, non-2xx, unparseable frame, watchdog reap,
or an external :meth:`EventChannelClient.kill` from the breaker — fires
``on_dead`` exactly once; the event router reacts by falling back to the
poll loop and scheduling a re-establishment with the resilience layer's
backoff.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import TransportError
from repro.net.addressing import NodeAddress
from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.obs import NOOP_OBS
from repro.soap import envelope
from repro.soap.http import HttpClient, InterchangeConfig

#: HTTP path publishers register for channel waits.
EVENTS_PATH = "/events"
#: Media type of channel messages (wait requests and event frames).
EVENTS_CONTENT_TYPE = "application/x-events"
#: Longest the publisher parks a channel wait before answering with an
#: empty keepalive frame.  Must stay comfortably below the exchange
#: watchdog (``repro.soap.http.EXCHANGE_TIMEOUT``) or the subscriber
#: reaps idle channels as wedged.
EVENT_MAX_HOLD = 25.0


class EventChannelClient:
    """One held-exchange loop against one remote publisher gateway.

    ``on_batch(batch_id, events)`` delivers each freshly received batch;
    ``on_dead(exc)`` fires once when the channel dies for any reason
    other than a deliberate :meth:`stop`.
    """

    def __init__(
        self,
        stack: TransportStack,
        dst: NodeAddress,
        port: int,
        island: str,
        config: InterchangeConfig,
        on_batch: Callable[[int, list[Any]], None],
        on_dead: Callable[[BaseException], None],
        initial_ack: int = 0,
        obs=NOOP_OBS,
        label: str = "",
    ) -> None:
        self.dst = dst
        self.port = port
        self.island = island
        self.hold = EVENT_MAX_HOLD
        self.on_batch = on_batch
        self.on_dead = on_dead
        #: Highest batch id fully delivered to local subscribers; sent
        #: with every wait so the publisher can release (or redeliver)
        #: its retained unacked batch.
        self.acked = initial_ack
        self.closed = False
        self.frames_received = 0
        self.http = HttpClient(stack, config)
        if label:
            self.http.observe(obs, label)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Arm the first wait."""
        self._arm()

    def stop(self) -> None:
        """Deliberate teardown: no ``on_dead``."""
        if self.closed:
            return
        self.closed = True
        self.http.close()

    def kill(self, exc: BaseException) -> None:
        """External death (breaker open, island unreachable): tear down
        and report through ``on_dead`` so the router falls back."""
        self._die(exc)

    # -- internals ------------------------------------------------------------

    def _arm(self) -> None:
        if self.closed:
            return
        body = envelope.build_event_wait(self.island, self.acked, self.hold)
        future = self.http.post(
            self.dst,
            self.port,
            EVENTS_PATH,
            body,
            headers={"Content-Type": EVENTS_CONTENT_TYPE},
        )
        future.add_done_callback(self._on_response)

    def _on_response(self, future: SimFuture) -> None:
        if self.closed:
            return
        exc = future.exception()
        if exc is not None:
            self._die(exc)
            return
        response = future.result()
        if not response.ok:
            self._die(
                TransportError(
                    f"event channel wait refused: HTTP {response.status} "
                    f"{response.reason}"
                )
            )
            return
        try:
            batch, events = envelope.parse_event_frame(response.body)
        except Exception as parse_exc:
            self._die(TransportError(f"bad event frame: {parse_exc}"))
            return
        self.frames_received += 1
        if events and batch > self.acked:
            self.on_batch(batch, events)
        self.acked = max(self.acked, batch)
        # on_batch may have stopped us (router shutdown mid-delivery).
        self._arm()

    def _die(self, exc: BaseException) -> None:
        if self.closed:
            return
        self.closed = True
        self.http.close()
        self.on_dead(exc)
