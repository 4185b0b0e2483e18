"""End-to-end observability: one bridged call = one multi-island trace.

The acceptance scenario for ``repro.obs``: a Jini client invoking an X10
service through the framework (proxy → VSG → SOAP interchange → peer VSG →
native powerline) must produce a *single* trace whose spans live on both
islands, exported deterministically; and under injected faults the
resilience layer's retries and breaker transitions must be visible as span
annotations and metric counters.
"""

import pytest

from repro.apps.home import build_smart_home
from repro.core.resilience import CallPolicy
from repro.faults import FaultInjector, FaultPlan, NodeCrash
from repro.net.simkernel import Simulator
from repro.obs import NOOP_OBS, Observability, render_trace_tree


def traced_home(sim=None, obs=None, policy=None):
    sim = sim or Simulator()
    obs = obs or Observability(sim)
    home = build_smart_home(
        sim, with_havi=False, with_mail=False, policy=policy, obs=obs
    )
    home.connect()
    home.run(5.0)
    return home, obs


def bridged_call(home):
    """One Jini→X10 bridged call (hall lamp on), run to completion."""
    return home.invoke_from("jini", "X10_A1_hall_lamp", "turn_on")


class TestBridgedCallTrace:
    def test_single_trace_spans_both_islands(self):
        home, obs = traced_home()
        marker = len(obs.tracer.spans)
        assert bridged_call(home) is True
        spans = obs.tracer.spans[marker:]
        trace_ids = {span.trace_id for span in spans}
        assert len(trace_ids) == 1, "one bridged call must be one trace"
        assert len(spans) >= 6
        islands = {span.island for span in spans}
        assert "jini" in islands and "x10" in islands
        names = [span.name for span in spans]
        assert any(name.startswith("vsg.invoke") for name in names)
        assert any(name.startswith("vsr.lookup") for name in names)
        # The directory round trip leaves from the lookup batch's flush
        # event and must still join the caller's trace.
        assert "soap.call UDDI.find_by_name" in names
        assert "soap.serve UDDI" in names
        assert any(name.startswith("soap.serve") for name in names)
        assert any(name.startswith("vsg.dispatch") for name in names)
        assert any(name.startswith("x10.") for name in names)
        assert all(span.end is not None for span in spans)

    def test_server_side_spans_join_via_header_parenting(self):
        home, obs = traced_home()
        marker = len(obs.tracer.spans)
        bridged_call(home)
        spans = obs.tracer.spans[marker:]
        by_id = {span.span_id for span in spans}
        serve = [
            s for s in spans if s.name.startswith("soap.serve X10_") and s.island == "x10"
        ]
        assert serve, "serving island must contribute spans"
        # The remote side's spans parent into the client's trace (the
        # context crossed in the X-Trace header), not into a fresh root.
        assert all(span.parent_id in by_id for span in serve)

    def test_export_is_byte_identical_across_identical_runs(self, tmp_path):
        def run():
            home, obs = traced_home()
            marker = len(obs.tracer.spans)
            bridged_call(home)
            trace_id = obs.tracer.spans[marker].trace_id
            return obs.tracer.export_jsonl(trace_id), render_trace_tree(
                obs.tracer.spans[marker:]
            )

        first_jsonl, first_tree = run()
        second_jsonl, second_tree = run()
        assert first_jsonl == second_jsonl
        assert first_tree == second_tree
        path = tmp_path / "trace.jsonl"
        path.write_text(first_jsonl, encoding="utf-8")
        assert path.read_text(encoding="utf-8") == second_jsonl

    def test_rendered_tree_shows_the_bridge(self):
        home, obs = traced_home()
        marker = len(obs.tracer.spans)
        bridged_call(home)
        tree = render_trace_tree(obs.tracer.spans[marker:])
        assert "[jini]" in tree and "[x10]" in tree
        assert "vsg.invoke X10_A1_hall_lamp.turn_on" in tree

    def test_metrics_count_the_call_on_both_sides(self):
        home, obs = traced_home()
        bridged_call(home)
        snapshot = obs.metrics.snapshot()
        assert snapshot["vsg.jini.calls_out"] >= 1
        assert snapshot["vsg.x10.calls_in"] >= 1
        assert snapshot["vsg.jini.call_latency.count"] >= 1
        assert snapshot["vsr.jini.remote_lookups"] >= 1

    def test_disabled_observability_records_nothing(self):
        sim = Simulator()
        home = build_smart_home(sim, with_havi=False, with_mail=False)
        home.connect()
        home.run(5.0)
        assert bridged_call(home) is True
        assert home.mm.obs is NOOP_OBS
        assert list(NOOP_OBS.tracer.spans) == []
        assert NOOP_OBS.metrics.snapshot() == {}

    def test_untraced_background_chatter_creates_no_roots(self):
        """Heartbeats and event polls run constantly; with no call in
        flight they must not open trace roots of their own."""
        home, obs = traced_home()
        before = len(obs.tracer.spans)
        home.run(30.0)  # plenty of polls and heartbeats
        assert len(obs.tracer.spans) == before


POLICY = CallPolicy(
    deadline=1.0,
    max_retries=1,
    breaker_threshold=2,
    breaker_reset_timeout=8.0,
    directory_deadline=2.0,
    seed=11,
)


class TestChaosObservability:
    def crash_and_call(self):
        sim = Simulator()
        obs = Observability(sim)
        home, obs = traced_home(sim, obs, policy=POLICY)
        bridged_call(home)  # warm: resolves + pools while healthy
        plan = FaultPlan(seed=11).at(sim.now + 1.0, NodeCrash("gw-x10", restart_after=120.0))
        FaultInjector(home.network, plan, mm=home.mm).arm()
        home.run(2.0)
        failures = 0
        for _ in range(4):
            try:
                bridged_call(home)
            except Exception:
                failures += 1
            home.run(1.0)
        return home, obs, failures

    def test_retries_and_breaker_are_observable(self):
        home, obs, failures = self.crash_and_call()
        assert failures >= 2
        snapshot = obs.metrics.snapshot()
        assert snapshot["resilience.jini.retries"] >= 1
        assert snapshot["resilience.jini.timeouts"] >= 1
        assert snapshot["resilience.jini.breaker.x10.to_open"] >= 1
        annotations = [
            note["message"]
            for span in obs.tracer.spans
            for note in span.annotations
        ]
        assert any("timed out" in message for message in annotations)
        assert any(message.startswith("retry 1/") for message in annotations)
        assert any("breaker open" in message for message in annotations)

    def test_failed_spans_carry_error_status(self):
        home, obs, failures = self.crash_and_call()
        failed = [
            span
            for span in obs.tracer.spans
            if span.name.startswith("vsg.invoke") and span.status == "error"
        ]
        assert failed, "failed bridged calls must export error spans"
