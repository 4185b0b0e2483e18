"""The Internet Mail PCM.

The mail island's "middleware" is classic Internet mail: an SMTP/POP
server on the backbone.

- **Client Proxy (export)** — one neutral service ``InternetMail`` with
  ``send(to, subject, body)`` (SMTP submission from the gateway) and
  ``check_inbox(user)`` (POP drain, returning message structs).  Any other
  island can now send email: the VCR mails the user when a recording
  finishes, etc.
- **Server Proxy (import)** — mail cannot natively *host* remote services;
  instead the PCM offers :meth:`forward_events_to`, which subscribes to
  framework event topics and delivers each event as an email — genuine
  service integration in the paper's Section 2 sense.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConversionError
from repro.net.addressing import NodeAddress
from repro.net.simkernel import SimFuture
from repro.soap.wsdl import WsdlDocument
from repro.core.interface import ServiceInterface, simple_interface
from repro.core.pcm import ProtocolConversionManager
from repro.core.vsg import VirtualServiceGateway
from repro.mail.mailbox import PopClient
from repro.mail.message import MailMessage
from repro.mail.smtp import SmtpClient

SERVICE_NAME = "InternetMail"
DEFAULT_SOURCE = "framework@home.sim"
#: Topic published per message noticed by :meth:`MailPcm.watch_inbox`.
MAIL_ARRIVED_TOPIC = "mail.arrived"


class MailPcm(ProtocolConversionManager):
    """PCM bridging the Internet Mail service."""

    middleware_name = "mail"

    def __init__(
        self,
        vsg: VirtualServiceGateway,
        server_address: NodeAddress,
        smtp_port: int = 25,
        pop_port: int = 110,
    ) -> None:
        super().__init__(vsg)
        self.server_address = server_address
        self.smtp_port = smtp_port
        self.pop_port = pop_port
        self.smtp = SmtpClient(vsg.stack)
        self.pop = PopClient(vsg.stack)
        self.mails_sent = 0
        self.events_forwarded = 0
        self.mails_noticed = 0
        self._watch_timers: dict[str, Any] = {}

    # -- Client Proxy: mail -> neutral ----------------------------------------------

    def _discover_local_services(self) -> SimFuture:
        interface = simple_interface(
            SERVICE_NAME,
            {
                "send": ("string", "string", "string", "->boolean"),
                "check_inbox": ("string", "->anyType"),
            },
        )
        context = {"server": str(self.server_address)}
        return SimFuture.completed([(SERVICE_NAME, interface, self._handle, context)])

    def _handle(self, operation: str, args: list[Any]) -> SimFuture:
        if operation == "send":
            return self.send_mail(str(args[0]), str(args[1]), str(args[2]))
        if operation == "check_inbox":
            return self._check_inbox(str(args[0]))
        raise ConversionError(f"{SERVICE_NAME} has no operation {operation!r}")

    def send_mail(self, to: str, subject: str, body: str, sender: str = DEFAULT_SOURCE) -> SimFuture:
        message = MailMessage(
            sender=sender,
            recipients=(to,),
            subject=subject,
            body=body,
            sent_at=self.sim.now,
        )

        def on_sent(_: Any) -> bool:
            self.mails_sent += 1
            return True

        return self.smtp.send(self.server_address, message, port=self.smtp_port).then(on_sent)

    def _check_inbox(self, user: str) -> SimFuture:
        return self.pop.fetch_all(self.server_address, user, port=self.pop_port).then(
            lambda messages: [
                {
                    "from": message.sender,
                    "subject": message.subject,
                    "body": message.body,
                    "sent_at": message.sent_at,
                }
                for message in messages
            ]
        )

    # -- Server Proxy: neutral -> mail ----------------------------------------------

    def _materialise(self, document: WsdlDocument, interface: ServiceInterface) -> SimFuture:
        # Remote services have no mail-native representation to install;
        # integration happens through forward_events_to / send_mail.
        return SimFuture.completed(True)

    def forward_events_to(self, user: str, topic: str) -> SimFuture:
        """Subscribe to ``topic`` framework-wide and mail each event."""

        def on_event(event_topic: str, payload: Any, source_island: str) -> None:
            self.events_forwarded += 1
            self.send_mail(
                to=user,
                subject=f"[{source_island}] {event_topic}",
                body=f"event payload: {payload!r}",
            )

        return self.vsg.subscribe(topic, on_event)

    # -- inbound mail as framework events -------------------------------------------

    def watch_inbox(self, user: str, interval: float = 30.0) -> None:
        """Poll ``user``'s POP inbox on the simulation clock and publish a
        :data:`MAIL_ARRIVED_TOPIC` framework event per fetched message.

        This turns mail *arrival* into a trigger other islands (and the
        rule engine) can react to — the inbound mirror of
        :meth:`forward_events_to`.  POP fetches drain the mailbox, so each
        poll sees only new mail.
        """
        if user in self._watch_timers:
            return

        def poll() -> None:
            def on_fetched(future: SimFuture) -> None:
                exc = future.exception()
                if exc is None:
                    for message in future.result():
                        self.mails_noticed += 1
                        self.vsg.publish_event(
                            MAIL_ARRIVED_TOPIC,
                            {
                                "user": user,
                                "from": message.sender,
                                "subject": message.subject,
                                "body": message.body,
                            },
                        )
                if user in self._watch_timers:  # still watching
                    self._watch_timers[user] = self.sim.schedule(interval, poll)

            self.pop.fetch_all(
                self.server_address, user, port=self.pop_port
            ).add_done_callback(on_fetched)

        self._watch_timers[user] = self.sim.schedule(interval, poll)

    def stop_watching(self, user: str) -> None:
        timer = self._watch_timers.pop(user, None)
        if timer is not None:
            timer.cancel()
