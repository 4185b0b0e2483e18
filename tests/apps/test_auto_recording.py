"""Tests for the automatic video recording integration (Section 2)."""

import pytest

from repro.apps.auto_recording import (
    GUIDE_SERVICE,
    RecordingAgent,
    TvProgramService,
    UserProfile,
)
from repro.core.framework import MetaMiddleware
from repro.core.shard import FederationConfig
from repro.net.network import Network
from repro.net.segment import EthernetSegment
from repro.net.simkernel import Simulator


@pytest.fixture
def guide(home):
    service = TvProgramService(home.mm)
    home.sim.run_until_complete(service.publish())
    return service


class TestTvProgramService:
    def test_guide_reachable_from_every_island_without_a_pcm(self, home, guide):
        """An already-SOAP Internet service integrates by publishing WSDL
        alone — no PCM (Section 2.2's Internet-service integration)."""
        for island in ("jini", "havi", "x10", "mail"):
            programs = home.invoke_from(island, GUIDE_SERVICE, "list_programs")
            assert len(programs) == 5

    def test_genre_query(self, home, guide):
        technology = home.invoke_from("jini", GUIDE_SERVICE, "find_by_genre", ["technology"])
        assert [p["title"] for p in technology] == [
            "Ubiquitous Computing Tonight",
            "Home Networking Special",
        ]

    def test_find_after(self, home, guide):
        late = home.invoke_from("jini", GUIDE_SERVICE, "find_after", [350.0])
        assert [p["title"] for p in late] == ["Evening Movie"]

    def test_guide_lands_on_its_ring_owner_in_a_sharded_home(self):
        sim = Simulator()
        network = Network(sim)
        backbone = network.create_segment(EthernetSegment, "backbone")
        mm = MetaMiddleware(network, backbone, federation=FederationConfig(shards=4))
        island = mm.add_island("viewer", None)
        sim.run_until_complete(mm.connect())
        owner = mm.federation.ring.owner(GUIDE_SERVICE)
        assert owner != 0  # the case a shard-0 publish gets wrong
        sim.run_until_complete(TvProgramService(mm).publish())
        assert mm.federation.replicas[owner][0].directory.find_by_name(GUIDE_SERVICE)
        programs = sim.run_until_complete(
            island.gateway.invoke(GUIDE_SERVICE, "list_programs", [])
        )
        assert len(programs) == 5


class TestRecordingAgent:
    def test_profile_matching(self):
        profile = UserProfile(genres=("news",), keywords=("movie",))
        assert profile.matches({"title": "x", "genre": "news"})
        assert profile.matches({"title": "Evening Movie", "genre": "movies"})
        assert not profile.matches({"title": "Cooking", "genre": "cooking"})

    def test_records_matching_programs_end_to_end(self, home, guide):
        agent = RecordingAgent(home, UserProfile(genres=("technology",)))
        planned = home.sim.run_until_complete(agent.plan())
        assert [r.title for r in planned] == [
            "Ubiquitous Computing Tonight",
            "Home Networking Special",
        ]
        home.run(600.0)  # let both programs air
        assert len(agent.completed()) == 2
        assert agent.failed() == []
        recorded = home.vcr.list_recordings()
        assert [r["title"] for r in recorded] == [
            "Ubiquitous Computing Tonight",
            "Home Networking Special",
        ]
        assert recorded[0]["channel"] == 5

    def test_vcr_state_during_recording(self, home, guide):
        agent = RecordingAgent(home, UserProfile(genres=("news",)))
        home.sim.run_until_complete(agent.plan())
        home.run(90.0)  # inside Morning News (60..120)
        assert home.vcr.get_state() == "RECORD"
        assert home.vcr.channel == 1
        home.run(60.0)
        assert home.vcr.get_state() == "STOP"

    def test_overlapping_programs_fail_gracefully(self, home, guide):
        """Morning News (60-120) overlaps Cooking (90-150) on one VCR: the
        second recording must fail, not corrupt the first."""
        agent = RecordingAgent(home, UserProfile(genres=("news", "cooking")))
        home.sim.run_until_complete(agent.plan())
        home.run(500.0)
        done = [r.title for r in agent.completed()]
        failed = [r.title for r in agent.failed()]
        assert done == ["Morning News"]
        assert failed == ["Cooking with Microwaves"]

    def test_completion_mail_sent(self, home, guide):
        agent = RecordingAgent(
            home, UserProfile(genres=("news",), mail_to="user@home.sim")
        )
        home.sim.run_until_complete(agent.plan())
        home.run(300.0)
        assert agent.mails_sent == 1
        box = home.mail_server.store.mailbox("user@home.sim")
        assert "Morning News" in box.messages[0].subject

    def test_past_programs_not_scheduled(self, home, guide):
        home.run(200.0)  # news and cooking already aired
        agent = RecordingAgent(home, UserProfile(genres=("news", "technology")))
        planned = home.sim.run_until_complete(agent.plan())
        assert [r.title for r in planned] == ["Home Networking Special"]
