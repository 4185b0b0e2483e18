"""Automatic video recording (paper Section 2).

"The service integration of a VCR control service with a TV program
service on the Internet can provide an automatic video recording service
that records TV programs according to user profiles on the Internet."

Two halves:

- :class:`TvProgramService` — the Internet side: a plain SOAP web service
  on the backbone serving an electronic program guide.  Because it is
  already SOAP — the VSG's own protocol — it needs *no PCM*: it simply
  publishes its WSDL into the VSR and every island can call it (this is
  the "integration with the most important service middleware on the
  Internet" of Section 2.2).
- :class:`RecordingAgent` — matches the guide against a user profile and
  drives the Jini VCR at the right virtual times, optionally mailing the
  user on completion through the mail island.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.simkernel import SimFuture
from repro.net.transport import TransportStack
from repro.soap.server import SoapServer
from repro.core.framework import MetaMiddleware
from repro.core.interface import simple_interface
from repro.core.vsr import VsrClient
from repro.apps.home import SmartHome

GUIDE_SERVICE = "TvProgramGuide"

#: A small default schedule; ``start``/``end`` are virtual seconds.
DEFAULT_PROGRAMS = [
    {"title": "Morning News", "channel": 1, "start": 60.0, "end": 120.0, "genre": "news"},
    {"title": "Cooking with Microwaves", "channel": 3, "start": 90.0, "end": 150.0, "genre": "cooking"},
    {"title": "Ubiquitous Computing Tonight", "channel": 5, "start": 180.0, "end": 260.0, "genre": "technology"},
    {"title": "Home Networking Special", "channel": 5, "start": 300.0, "end": 380.0, "genre": "technology"},
    {"title": "Evening Movie", "channel": 8, "start": 400.0, "end": 520.0, "genre": "movies"},
]


class TvProgramService:
    """The Internet TV program guide as a SOAP web service."""

    def __init__(
        self,
        mm: MetaMiddleware,
        programs: list[dict[str, Any]] | None = None,
        port: int = 8080,
    ) -> None:
        self.mm = mm
        self.programs = [dict(program) for program in (programs or DEFAULT_PROGRAMS)]
        network = mm.network
        self.node = network.create_node("tv-program-service")
        network.attach(self.node, mm.backbone)
        self.stack = TransportStack(self.node, network)
        self.soap = SoapServer(self.stack, port)
        self.soap.register_service(GUIDE_SERVICE, self._dispatch)
        self.port = port
        self.queries_served = 0

    def _dispatch(self, operation: str, args: list[Any]) -> Any:
        self.queries_served += 1
        if operation == "list_programs":
            return list(self.programs)
        if operation == "find_by_genre":
            genre = str(args[0])
            return [program for program in self.programs if program["genre"] == genre]
        if operation == "find_after":
            start = float(args[0])
            return [program for program in self.programs if program["start"] >= start]
        raise ValueError(f"{GUIDE_SERVICE} has no operation {operation!r}")

    def publish(self) -> SimFuture:
        """Register the guide's WSDL in the VSR so every island sees it."""
        interface = simple_interface(
            GUIDE_SERVICE,
            {
                "list_programs": ("->anyType",),
                "find_by_genre": ("string", "->anyType"),
                "find_after": ("double", "->anyType"),
            },
        )
        location = f"soap://{self.stack.local_address(self.mm.backbone)}:{self.port}/soap/{GUIDE_SERVICE}"
        document = interface.to_wsdl(
            location, {"island": "internet", "middleware": "soap", "protocol": "soap"}
        )
        client = VsrClient(self.stack, self.mm.federation.routing())
        return client.publish(document)


@dataclass
class ScheduledRecording:
    """One planned recording."""

    title: str
    channel: int
    start: float
    end: float
    state: str = "scheduled"  # scheduled | recording | done | failed
    error: str = ""


@dataclass
class UserProfile:
    """The "user profiles on the Internet" of the paper's scenario."""

    genres: tuple[str, ...] = ("technology",)
    keywords: tuple[str, ...] = ()
    mail_to: str = ""

    def matches(self, program: dict[str, Any]) -> bool:
        if program.get("genre") in self.genres:
            return True
        title = str(program.get("title", "")).lower()
        return any(keyword.lower() in title for keyword in self.keywords)


class RecordingAgent:
    """Integrates the guide, the Jini VCR and (optionally) the mail island."""

    def __init__(
        self,
        home: SmartHome,
        profile: UserProfile,
        from_island: str = "jini",
        vcr_service: str = "Vcr",
    ) -> None:
        self.home = home
        self.profile = profile
        self.gateway = home.island(from_island).gateway
        self.vcr_service = vcr_service
        self.schedule: list[ScheduledRecording] = []
        self.mails_sent = 0

    def plan(self) -> SimFuture:
        """Query the guide, match the profile, arm virtual-time timers.
        Resolves to the list of :class:`ScheduledRecording`."""

        def on_programs(programs: list[dict[str, Any]]) -> list[ScheduledRecording]:
            now = self.home.sim.now
            for program in programs:
                if not self.profile.matches(program) or program["start"] <= now:
                    continue
                recording = ScheduledRecording(
                    title=str(program["title"]),
                    channel=int(program["channel"]),
                    start=float(program["start"]),
                    end=float(program["end"]),
                )
                self.schedule.append(recording)
                self.home.sim.at(recording.start, self._begin, recording)
                self.home.sim.at(recording.end, self._finish, recording)
            return list(self.schedule)

        return self.gateway.invoke(GUIDE_SERVICE, "list_programs", []).then(on_programs)

    # -- timer callbacks ------------------------------------------------------------

    def _begin(self, recording: ScheduledRecording) -> None:
        def after_tune(future: SimFuture) -> None:
            if future.exception() is not None:
                recording.state = "failed"
                recording.error = f"tune: {future.exception()}"
                return
            start = self.gateway.invoke(self.vcr_service, "start_record", [recording.title])
            start.add_done_callback(after_start)

        def after_start(future: SimFuture) -> None:
            if future.exception() is not None:
                recording.state = "failed"
                recording.error = f"record: {future.exception()}"
            else:
                recording.state = "recording"

        self.gateway.invoke(
            self.vcr_service, "set_channel", [recording.channel]
        ).add_done_callback(after_tune)

    def _finish(self, recording: ScheduledRecording) -> None:
        if recording.state != "recording":
            return

        def after_stop(future: SimFuture) -> None:
            if future.exception() is not None:
                recording.state = "failed"
                recording.error = f"stop: {future.exception()}"
                return
            recording.state = "done"
            if self.profile.mail_to:
                self._mail_user(recording)

        self.gateway.invoke(self.vcr_service, "stop_record", []).add_done_callback(after_stop)

    def _mail_user(self, recording: ScheduledRecording) -> None:
        future = self.gateway.invoke(
            "InternetMail",
            "send",
            [
                self.profile.mail_to,
                f"Recorded: {recording.title}",
                f"Channel {recording.channel}, {recording.start:.0f}s-{recording.end:.0f}s.",
            ],
        )

        def on_sent(done: SimFuture) -> None:
            if done.exception() is None:
                self.mails_sent += 1

        future.add_done_callback(on_sent)

    # -- inspection ------------------------------------------------------------

    def completed(self) -> list[ScheduledRecording]:
        return [recording for recording in self.schedule if recording.state == "done"]

    def failed(self) -> list[ScheduledRecording]:
        return [recording for recording in self.schedule if recording.state == "failed"]
