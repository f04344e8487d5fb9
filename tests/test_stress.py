"""Deeper instances: a hand-built dumbbell, medium generated domains, a grid-40
instance and shapes the generator rarely makes.

The corpus keeps grids small; these cases push the oriented extremes higher
and check full engine/oracle agreement there.
"""

import tracemalloc

import pytest

from rectilink import GenParams, build_grid, gen_domain, parse_domain, run_verify
from rectilink.geometry import validate
from rectilink.oracle import _block_sources

from conftest import DUMBBELL, medium_domain, perforated, spiral


def assert_engines_equal_oracle(report: dict) -> None:
    assert report["verdict"] == "ok", report["instance"]
    for kind in ("diameter", "radius"):
        oracle = report[kind]["oracle"]["value"]
        assert all(entry["value"] == oracle for entry in report[kind].values()), (kind, report["instance"])


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
        report = run_verify(medium_domain(seed))
        assert report["verdict"] == "ok", report["instance"]

    def test_depth_reached(self):
        domain = gen_domain(GenParams(width=22, height=22, cells=int(22 * 22 * 0.5), holes=2, seed=106))
        report = run_verify(domain)
        assert report["verdict"] == "ok"
        assert report["instance"]["ordiam"] >= 8


class TestFullCheckPastCorpus:
    def test_grid40_verify(self, grid40):
        """The whole check, oracle included, on the first grid-40 instance (seed 1000)."""
        prep = grid40[0]
        assert_engines_equal_oracle(run_verify(prep.domain))

    def test_grid40_face_table_memory(self, grid40):
        """The face-table pass holds the table and one block's arrays, nothing of order faces squared besides.

        A pass from a block of ``64 * words`` sources holds at most about 40
        word arrays of ``cells * words`` words (the sources, the gathered and
        per-run words and the bit planes; there are at most ``2 * cells``
        runs), and its levels and prices about 16 bytes per (face, source)
        entry.  A dense faces-by-faces int64 intermediate would exceed this.
        """
        grid = build_grid(grid40[0].domain)
        faces, cells = len(grid.faces()), int(grid.inside.sum())
        block = _block_sources(cells)
        words = block // 64
        tracemalloc.start()
        try:
            values = grid.face_values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = values.nbytes + 40 * 8 * cells * words + 16 * faces * block
        assert values.nbytes == faces * faces * values.itemsize
        assert peak <= bound, (peak, bound, faces, cells, words)
        assert peak < values.nbytes + faces * faces * 8


class TestRareShapes:
    """Shapes the generator rarely makes: a spiral corridor, and many 1-unit holes and corridors."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 12, 30])
    def test_spiral(self, k):
        domain = parse_domain(spiral(k))
        assert validate(domain).ok
        report = run_verify(domain)
        assert_engines_equal_oracle(report)
        assert report["instance"]["n"] == 2 * k + 2

    @pytest.mark.parametrize("k", [1, 2, 5, 11, 20])
    def test_perforated(self, k):
        domain = parse_domain(perforated(k))
        assert validate(domain).ok
        report = run_verify(domain)
        assert_engines_equal_oracle(report)
        assert report["instance"]["h"] == k
