"""Shrinking: a seeded bug must reduce to a handful of operations."""

from __future__ import annotations

import pytest

from repro.testkit import check, shrink_failure
from repro.testkit.__main__ import main
from repro.testkit.shrink import _Budget, _minimize


class TestMinimize:
    def _fails_if_contains(self, needle):
        return lambda items: needle in items

    def test_reduces_to_single_culprit(self) -> None:
        items = list(range(20))
        result = _minimize(items, self._fails_if_contains(13), _Budget(300))
        assert result == [13]

    def test_keeps_conjunction_of_two_culprits(self) -> None:
        def fails(items):
            return 3 in items and 17 in items

        result = _minimize(list(range(20)), fails, _Budget(300))
        assert result == [3, 17]

    def test_budget_exhaustion_returns_best_so_far(self) -> None:
        items = list(range(50))
        result = _minimize(items, self._fails_if_contains(49), _Budget(2))
        # Not minimal, but still failing and never empty.
        assert 49 in result

    def test_green_predicate_keeps_everything(self) -> None:
        items = list(range(8))
        assert _minimize(items, lambda _items: False, _Budget(300)) == items


@pytest.fixture(scope="module")
def shrunk():
    return shrink_failure(3, inject_bug="swallow-call")


class TestShrinkFailure:
    def test_seeded_bug_shrinks_to_small_repro(self, shrunk) -> None:
        """A deliberately seeded bug found by the sweep shrinks to <= 10
        operations."""
        assert shrunk.oracle == "call-completion"
        assert len(shrunk.ops) <= 10
        assert not shrunk.result.ok
        # The rendered repro tells a human how to replay it.
        assert "reproduce:" in shrunk.render()
        assert f"--seed {shrunk.seed}" in shrunk.render()

    def test_shrunk_scripts_still_fail_same_oracle(self, shrunk) -> None:
        oracles = {violation.oracle for violation in shrunk.result.violations}
        assert shrunk.oracle in oracles

    def test_replay_count_is_exact(self, monkeypatch) -> None:
        import repro.testkit.shrink as shrink_module

        calls = []
        real_replay = shrink_module.replay

        def counting_replay(*args, **kwargs):
            calls.append(1)
            return real_replay(*args, **kwargs)

        monkeypatch.setattr(shrink_module, "replay", counting_replay)
        shrunk = shrink_failure(3, inject_bug="swallow-call")
        assert shrunk.replays == len(calls)

    def test_green_seed_refuses_to_shrink(self) -> None:
        with pytest.raises(ValueError):
            shrink_failure(3)


class TestCommandLine:
    def test_printed_reproduce_line_reproduces(self, shrunk, capsys) -> None:
        """The ``reproduce:`` line carries every argument the failure
        needs: replaying it fails again."""
        line = next(
            line for line in shrunk.render().splitlines() if line.startswith("reproduce:")
        )
        argv = line.split("-m repro.testkit", 1)[1].split()
        assert main(argv) == 1
        assert "every invariant held" not in capsys.readouterr().out

    def test_steps_appear_only_when_not_default(self) -> None:
        shrunk = shrink_failure(3, steps=20, inject_bug="swallow-call")
        assert shrunk.args() == "--seed 3 --steps 20 --inject-bug swallow-call"

    def test_green_seed_shrink_exits_clean(self, capsys) -> None:
        assert main(["--seed", "3", "--shrink"]) == 0
        assert "nothing to shrink" in capsys.readouterr().out

    def test_repro_header_names_the_band(self) -> None:
        assert check(3).render_repro().startswith(
            "=== testkit repro (seed=3 band=default) ==="
        )

    def test_default_run_ships_repro_flight_and_metrics(self) -> None:
        assert set(check(3).artifacts()) == {"repro", "flight", "metrics"}
