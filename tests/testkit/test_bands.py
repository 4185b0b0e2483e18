"""The band registry: every seed has exactly one band, by range."""

from __future__ import annotations

import pytest

from repro.testkit import BANDS, band_for

#: (band, the band just below its range, the band just above it).
EDGES = {
    "push": ("default", "rules"),
    "rules": ("push", "reactor"),
    "reactor": ("rules", "telemetry"),
    "telemetry": ("reactor", "persistence"),
    "persistence": ("telemetry", "scale"),
    "scale": ("persistence", "default"),
}


def test_every_ranged_band_has_its_edges_checked() -> None:
    assert set(EDGES) == {name for name, band in BANDS.items() if band.seeds}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_band_routes_its_edges(name: str) -> None:
    seeds = BANDS[name].seeds
    below, above = EDGES[name]
    assert band_for(seeds[0]).name == name
    assert band_for(seeds[-1]).name == name
    assert band_for(seeds[0] - 1).name == below
    assert band_for(seeds[-1] + 1).name == above


def test_ranges_are_disjoint_and_the_rest_is_default() -> None:
    owned: dict[int, str] = {}
    for name, band in BANDS.items():
        for seed in band.seeds:
            assert seed not in owned, f"seed {seed} in {owned.get(seed)} and {name}"
            owned[seed] = name
    for seed in list(range(-5, 1000)) + [10_000, 10_199, 2**31]:
        assert band_for(seed).name == owned.get(seed, "default")

