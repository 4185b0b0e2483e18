"""Golden wire traces the directory pins compare against.

``vsr_wire.json`` holds the backbone ``TraceEntry`` list of two small
homes on the single-directory wire, recorded from the code as it stood
before the single directory became the 1 shard x 1 replica federation
plane.  Both pins (``tests/core/test_vsr_federation.py`` and the C14
benchmark) replay their scenario on today's default home and compare
frame for frame.  The file is a frozen reference: a diff against it is a
wire change to explain in docs/FEDERATION.md, never a file to refresh.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.net.monitor import TraceEntry

WIRE_FILE = Path(__file__).with_name("vsr_wire.json")


def wire_trace(scenario: str) -> list[TraceEntry]:
    """The recorded backbone trace of ``scenario``."""
    golden = json.loads(WIRE_FILE.read_text(encoding="utf-8"))
    fields = golden["fields"]
    return [TraceEntry(**dict(zip(fields, row))) for row in golden["scenarios"][scenario]]
