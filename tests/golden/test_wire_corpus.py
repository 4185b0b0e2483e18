"""Every canonical experiment scenario replays its golden wire.

Legacy scenarios pin the 2002 wire the paper's figures and negative
results measure; modern scenarios pin the keep-alive + gzip + terse +
push + vectored wire.  A failure here means frames moved: explain them
in docs/PROTOCOLS.md, do not re-record to make the pin pass.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import values
from repro.havi import codec as havi_codec
from repro.havi.messaging import Seid
from repro.jini import marshalling
from repro.net.addressing import NodeAddress
from repro.soap import envelope, http
from tests.golden import GOLDEN_DIR, digest, wire_digest, wire_trace
from tests.golden.scenarios import DIGESTED, SCENARIOS, diff_traces, main


def clear_codec_memos() -> None:
    """Forget every body the envelope codec and the gzip codec remember."""
    envelope.clear_memos()
    http.gzip_bytes.cache_clear()
    http.gunzip_bytes.cache_clear()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_replays_golden_wire(name):
    _wire, scenario = SCENARIOS[name]
    trace = scenario()
    assert trace, "the scenario put nothing on the wire"
    if name in DIGESTED:
        assert digest(trace) == wire_digest(name)
    else:
        assert trace == wire_trace(name)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stack_rendered_envelopes_skip_elementtree(name, monkeypatch):
    """Every envelope, event frame and event wait the stack renders is read
    by a template reader: the ElementTree fallbacks are patched to record
    and raise, and none is reached while the scenario still replays its
    golden wire.  A writer that drifts from its reader's shape fails here
    instead of silently taking the slow path.  The codec memos are cleared
    first: a body an earlier test left there would be answered without
    running any reader."""
    clear_codec_memos()
    fallbacks = []
    for attr in ("_parse_tree", "_parse_event_frame_tree", "_parse_event_wait_tree"):

        def refuse(data, attr=attr):
            fallbacks.append((attr, bytes(data[:80])))
            raise AssertionError(f"{attr} reached for {bytes(data[:80])!r}")

        monkeypatch.setattr(envelope, attr, refuse)
    trace = SCENARIOS[name][1]()
    assert fallbacks == []
    if name in DIGESTED:
        assert digest(trace) == wire_digest(name)
    else:
        assert trace == wire_trace(name)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_replays_alike_with_cold_and_warm_memos(name):
    """The codec memos move no byte and no virtual time: a scenario run
    twice in one process, from cleared memos and then from the memos its
    first run left, puts the same trace on the wire."""
    clear_codec_memos()
    cold = SCENARIOS[name][1]()
    warm = SCENARIOS[name][1]()
    assert envelope._parse_memo.cache_info().hits > 0
    assert cold == warm


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_codec_branch_sees_a_node_address(name, monkeypatch):
    """A :class:`NodeAddress` is a tuple, so every codec branch that takes
    ``(list, tuple)`` would render one as a two-item array.  None is
    handed one: each such branch is wrapped to record an address it
    sees, and the scenario still replays its golden wire.  The codec
    memos are cleared first, so the builders run."""
    clear_codec_memos()
    seen = []
    watched_calls = []

    def watch(module, attr, position):
        original = getattr(module, attr)

        def watched(*args, **kwargs):
            watched_calls.append(attr)
            if isinstance(args[position], NodeAddress):
                seen.append((module.__name__, attr, args[position]))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, watched)

    watch(marshalling, "_write", 1)
    watch(havi_codec, "_write", 1)
    watch(values, "_check_any", 0)
    watch(envelope, "encode_value", 2)
    watch(envelope, "encode_value_terse", 1)
    from_wire = Seid.from_wire

    def seid_from_wire(data):
        if isinstance(data, NodeAddress):
            seen.append(("Seid", "from_wire", data))
        return from_wire(data)

    monkeypatch.setattr(Seid, "from_wire", staticmethod(seid_from_wire))
    trace = SCENARIOS[name][1]()
    assert watched_calls, "no watched codec branch ran"
    assert seen == []
    if name in DIGESTED:
        assert digest(trace) == wire_digest(name)
    else:
        assert trace == wire_trace(name)


def test_unchanged_scenario_diffs_empty(capsys):
    """``--diff`` reports nothing for a scenario that replays its golden
    wire, and writes no corpus file."""
    corpora = {path: path.read_bytes() for path in GOLDEN_DIR.glob("*_wire.json")}
    main(["--diff", "c10_push_rule"])
    assert capsys.readouterr().out == "c10_push_rule: unchanged\n"
    assert {path: path.read_bytes() for path in GOLDEN_DIR.glob("*_wire.json")} == corpora


def test_diff_without_names_covers_every_scenario(capsys):
    """Bare ``--diff`` diffs every scenario: on a clean tree each reads
    ``unchanged``, and no corpus file is written."""
    corpora = {path: path.read_bytes() for path in GOLDEN_DIR.glob("*_wire.json")}
    main(["--diff"])
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: unchanged" for name in SCENARIOS
    ]
    assert {path: path.read_bytes() for path in GOLDEN_DIR.glob("*_wire.json")} == corpora


def test_diff_names_the_frames_that_moved():
    before = wire_trace("c10_push_rule")
    after = list(before)
    after[3] = replace(after[3], size=after[3].size - 40)
    after[4] = replace(after[4], time=after[4].time - 0.001)
    after[5] = replace(after[5], protocol="udp")
    lines = diff_traces(before, after)
    assert lines[:3] == [
        f"frame 3: size {before[3].size} -> {before[3].size - 40}",
        f"frame 4: time {before[4].time!r} -> {before[4].time - 0.001!r}",
        f"frame 5: protocol {before[5].protocol!r} -> 'udp'",
    ]
    total = sum(entry.size for entry in before)
    assert lines[3:] == [f"backbone: 13 frames, {total:,} B -> 13 frames, {total - 40:,} B"]
    assert diff_traces(before, before) == []
