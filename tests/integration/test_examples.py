"""Every shipped example must run to completion.

Executed in-process via runpy so failures surface as ordinary test
failures with tracebacks (and the suite stays fast).
"""

from __future__ import annotations

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    captured = io.StringIO()
    with redirect_stdout(captured):
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    output = captured.getvalue()
    assert output.strip(), f"{name} printed nothing"


def test_expected_examples_present():
    assert {
        "quickstart.py",
        "universal_remote.py",
        "auto_recording.py",
        "surveillance.py",
        "join_upnp.py",
        "scenes.py",
    } <= set(EXAMPLES)


class TestExampleOutcomes:
    """Spot-check that the examples demonstrate what they claim."""

    def run(self, name):
        captured = io.StringIO()
        with redirect_stdout(captured):
            runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
        return captured.getvalue()

    def test_quickstart_reaches_all_islands(self):
        output = self.run("quickstart.py")
        assert "island=jini" in output and "island=havi" in output
        assert "island=x10" in output and "island=mail" in output
        assert "laserdisc: PLAY" in output

    def test_surveillance_shows_the_verdict(self):
        output = self.run("surveillance.py")
        assert "StreamNotBridgeableError" in output
        assert "faster at asynchronous notification" in output
        assert "transcoded=True" in output

    def test_join_upnp_two_way(self):
        output = self.run("join_upnp.py")
        assert "catalog now 15 services" in output
        assert "laserdisc (Jini island) state: PLAY" in output

    def test_chaos_demo_prints_resilience_counters(self):
        output = self.run("chaos_demo.py")
        assert "jini gateway resilience counters:" in output
        for key in ("attempts", "successes", "failures", "retries", "timeouts",
                    "stale_refreshes", "vsr_degraded_reads", "vsr_lookup_failures"):
            assert f"{key:>20}: " in output
        assert (
            "  breaker[mail]: {'state': 'closed', 'opens': 1, "
            "'fast_failures': 0, 'probes': 1}"
        ) in output
        assert "  breaker[internet]: {'state': 'closed'" in output
