"""Unit tests for the tracer: contexts, spans, activation, export."""

import pytest

from repro.net.simkernel import Simulator
from repro.obs import trace
from repro.obs import (
    NULL_SPAN,
    TRACE_HEADER,
    NullTracer,
    TraceContext,
    Tracer,
    render_trace_tree,
)


@pytest.fixture
def tracer(sim: Simulator) -> Tracer:
    return Tracer(sim)


class TestTraceContext:
    def test_header_round_trip(self):
        context = TraceContext(trace_id="t000001", span_id="s000002")
        assert context.to_header() == "t000001;s000002"
        assert TraceContext.from_header("t000001;s000002") == context

    def test_from_header_tolerates_whitespace(self):
        assert TraceContext.from_header(" t000001 ; s000002 ") == TraceContext(
            "t000001", "s000002"
        )

    def test_from_header_rejects_malformed(self):
        assert TraceContext.from_header("") is None
        assert TraceContext.from_header("no-separator") is None
        assert TraceContext.from_header(";s000001") is None
        assert TraceContext.from_header("t000001;") is None

    def test_header_name_is_an_extension_header(self):
        assert TRACE_HEADER.startswith("X-")


class TestSpanLifecycle:
    def test_ids_are_deterministic(self, tracer):
        a = tracer.start_span("one")
        b = tracer.start_span("two", parent=a)
        assert a.trace_id == "t1"
        assert a.span_id == "s1"
        assert b.trace_id == "t1"
        assert b.span_id == "s2"
        assert b.parent_id == "s1"

    def test_separate_roots_get_separate_traces(self, tracer):
        a = tracer.start_span("one")
        b = tracer.start_span("two")
        assert a.trace_id == "t1"
        assert b.trace_id == "t2"
        assert tracer.trace_ids() == ["t1", "t2"]

    def test_ambient_parenting_through_activate(self, tracer):
        root = tracer.start_span("root")
        with tracer.activate(root):
            child = tracer.start_span("child")
            assert tracer.current() is root
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert tracer.current() is None

    def test_context_parenting_joins_remote_trace(self, tracer):
        context = TraceContext(trace_id="t000042", span_id="s000007")
        span = tracer.start_span("serve", parent=context)
        assert span.trace_id == "t000042"
        assert span.parent_id == "s000007"

    def test_finish_records_duration_and_is_idempotent(self, sim, tracer):
        span = tracer.start_span("work")
        assert span.start == sim.now
        sim.at(1.5, lambda: None)
        sim.run()
        span.finish()
        first_end = span.end
        span.finish(RuntimeError("late"))  # ignored: already finished
        assert span.end == first_end
        assert span.status == "ok"
        assert span.duration == pytest.approx(1.5)

    def test_finish_with_error_sets_status(self, tracer):
        span = tracer.start_span("work")
        span.finish(ValueError("boom"))
        assert span.status == "error"
        assert "boom" in span.error

    def test_annotations_are_timestamped(self, sim, tracer):
        span = tracer.start_span("work")
        sim.at(2.0, lambda: span.annotate("midway"))
        sim.run()
        assert span.annotations == [{"time": 2.0, "message": "midway"}]

    def test_attributes_chain(self, tracer):
        span = tracer.start_span("work").set_attribute("k", "v")
        assert span.attributes == {"k": "v"}

    def test_max_spans_drops_and_counts(self, sim, monkeypatch):
        monkeypatch.setattr(trace, "MAX_SPANS", 2)
        tracer = Tracer(sim)
        tracer.start_span("a")
        tracer.start_span("b")
        dropped = tracer.start_span("c")
        assert len(tracer.spans) == 2
        assert tracer.spans_dropped == 1
        # The overflow span still works (callers never check), it just
        # isn't retained for export.
        assert dropped not in tracer.spans

    def test_reset_drops_spans_but_keeps_ids_unique(self, tracer):
        tracer.start_span("a").finish()
        tracer.reset()
        assert tracer.spans == []
        assert tracer.spans_dropped == 0
        # Counters keep running so ids stay unique across the tracer's
        # lifetime (documented contract).
        assert tracer.start_span("b").trace_id == "t2"


class TestNullObjects:
    def test_null_span_is_inert(self):
        assert not NULL_SPAN.recording
        NULL_SPAN.set_attribute("k", "v").annotate("x").finish(ValueError("e"))
        assert NULL_SPAN.attributes == {}
        assert NULL_SPAN.annotations == []
        assert NULL_SPAN.end is None

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        assert not tracer.enabled
        span = tracer.start_span("anything", island="x", kind="client")
        assert span is NULL_SPAN
        with tracer.activate(span):
            assert tracer.current() is None
        assert tracer.current_context() is None
        assert list(tracer.spans) == []
        assert tracer.export_jsonl() == ""

    def test_real_tracer_activating_null_span_keeps_ambient_clear(self, tracer):
        with tracer.activate(NULL_SPAN):
            assert tracer.current() is None

    def test_null_activations_are_one_shared_object(self, tracer):
        """Activating a span that records nothing builds nothing: every
        activation, from either tracer, is the same no-op context."""
        null = NullTracer()
        assert null.activate(NULL_SPAN) is null.activate(NULL_SPAN)
        assert tracer.activate(NULL_SPAN) is null.activate(NULL_SPAN)
        with null.activate(NULL_SPAN) as entered:
            assert entered is None
        with pytest.raises(ValueError):
            with null.activate(NULL_SPAN):
                raise ValueError("not swallowed")


class TestExport:
    def build(self, sim):
        tracer = Tracer(sim)
        root = tracer.start_span("root", island="jini", kind="client")
        with tracer.activate(root):
            tracer.start_span("child", island="x10", kind="server").finish()
        root.finish()
        return tracer

    def test_jsonl_is_deterministic_across_identical_runs(self):
        first = self.build(Simulator()).export_jsonl()
        second = self.build(Simulator()).export_jsonl()
        assert first == second
        assert first.count("\n") == 2

    def test_jsonl_lines_have_sorted_keys(self, sim):
        import json

        tracer = self.build(sim)
        for line in tracer.export_jsonl().splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert record["trace_id"] == "t1"

    def test_export_filters_by_trace(self, tracer):
        tracer.start_span("a").finish()
        tracer.start_span("b").finish()
        only_b = tracer.export_jsonl("t2")
        assert '"t2"' in only_b and '"t1"' not in only_b

    def test_write_jsonl(self, tracer, tmp_path):
        tracer.start_span("a").finish()
        path = tracer.write_jsonl(str(tmp_path / "spans.jsonl"))
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == tracer.export_jsonl()


class TestRenderTree:
    def test_tree_shows_hierarchy_islands_and_status(self, sim):
        tracer = Tracer(sim)
        root = tracer.start_span("vsg.invoke Lamp.turn_on", island="jini", kind="client")
        with tracer.activate(root):
            lookup = tracer.start_span("vsr.lookup Lamp", island="jini")
            lookup.finish()
            serve = tracer.start_span("soap.serve Lamp", island="x10", kind="server")
            serve.annotate("retry 1/2")
            serve.finish(TimeoutError("late"))
        root.finish()
        text = render_trace_tree(tracer)
        assert "trace t1" in text
        assert "islands: jini, x10" in text
        assert "└─" in text and "├─" in text
        assert "[x10]" in text
        assert "!error" in text
        assert "retry 1/2" in text

    def test_rendering_is_deterministic(self):
        def build():
            sim = Simulator()
            tracer = Tracer(sim)
            root = tracer.start_span("root")
            with tracer.activate(root):
                tracer.start_span("child").finish()
            root.finish()
            return render_trace_tree(tracer)

        assert build() == build()
