"""Every canonical experiment scenario replays its golden wire.

Legacy scenarios pin the 2002 wire the paper's figures and negative
results measure; modern scenarios pin the keep-alive + gzip + terse +
push + vectored wire.  A failure here means frames moved: explain them
in docs/PROTOCOLS.md, do not re-record to make the pin pass.
"""

from __future__ import annotations

import pytest

from tests.golden import digest, wire_digest, wire_trace
from tests.golden.scenarios import DIGESTED, SCENARIOS


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_replays_golden_wire(name):
    _wire, scenario = SCENARIOS[name]
    trace = scenario()
    assert trace, "the scenario put nothing on the wire"
    if name in DIGESTED:
        assert digest(trace) == wire_digest(name)
    else:
        assert trace == wire_trace(name)
