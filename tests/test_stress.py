"""Deeper instances: a hand-built dumbbell and medium generated domains.

The corpus keeps grids small; these cases push the oriented extremes higher
and check full engine/oracle agreement there.
"""

import pytest

from rectilink import GenParams, gen_domain, parse_domain, run_verify
from rectilink.geometry import validate

# Two rooms with one hole each, joined by a narrow corridor.  All walls are
# staggered so no two unjoined vertices share a coordinate.
DUMBBELL = {
    "outer": [
        [0, 0], [14, 0], [14, 6], [30, 6], [30, 1], [44, 1],
        [44, 13], [31, 13], [31, 8], [15, 8], [15, 14], [0, 14],
    ],
    "holes": [
        [[5, 3], [7, 3], [7, 5], [5, 5]],
        [[36, 9], [38, 9], [38, 11], [36, 11]],
    ],
}


class TestDumbbell:
    def test_valid(self):
        assert validate(parse_domain(DUMBBELL)).ok

    def test_all_engines_match_oracle(self):
        report = run_verify(parse_domain(DUMBBELL))
        assert report["verdict"] == "ok"
        assert len({e["value"] for e in report["diameter"].values()}) == 1
        assert len({e["value"] for e in report["radius"].values()}) == 1

    def test_corridor_forces_depth(self):
        report = run_verify(parse_domain(DUMBBELL))
        assert report["instance"]["ordiam"] >= 6  # crossing the corridor costs links
        assert not report["diameter"]["edge-scan"]["routed_to_fallback"]


class TestMediumGenerated:
    @pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
    def test_engines_match_oracle(self, seed):
        width = 16 + (seed % 3) * 3
        domain = gen_domain(
            GenParams(width=width, height=width, cells=int(width * width * 0.55), holes=seed % 3, seed=seed)
        )
        report = run_verify(domain)
        assert report["verdict"] == "ok", report["instance"]

    def test_depth_reached(self):
        domain = gen_domain(GenParams(width=22, height=22, cells=int(22 * 22 * 0.5), holes=2, seed=106))
        report = run_verify(domain)
        assert report["verdict"] == "ok"
        assert report["instance"]["ordiam"] >= 8
