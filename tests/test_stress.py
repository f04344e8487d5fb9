"""Deeper instances: a hand-built dumbbell, medium generated domains, a grid-40
instance and shapes the generator rarely makes.

The corpus keeps grids small; these cases push the oriented extremes higher
and check full engine/oracle agreement there.
"""

import tracemalloc

import numpy as np
import pytest

from rectilink import GenParams, build_grid, gen_domain, parse_domain, run_verify
from rectilink.geometry import validate
from rectilink.graph import Levels, all_pairs
from rectilink.oracle import _block_sources
from rectilink.pipeline import decompose

from conftest import DUMBBELL, medium_domain, perforated, spiral


def assert_engines_equal_oracle(report: dict) -> None:
    assert report["verdict"] == "ok", report["instance"]
    for kind in ("diameter", "radius"):
        oracle = report[kind]["oracle"]["value"]
        assert all(entry["value"] == oracle for entry in report[kind].values()), (kind, report["instance"])


class TestDumbbell:
    def test_valid(self):
        assert not validate(parse_domain(DUMBBELL))

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
        """The pass behind the oracle's extremes holds per-face arrays and one block's arrays, nothing of order faces².

        A pass from a block of ``64 * words`` sources holds at most about 40
        word arrays of ``cells * words`` words (the sources, the gathered and
        per-run words and the bit planes; there are at most ``2 * cells``
        runs), and its levels and prices about 16 bytes per (face, source)
        entry.  The two per-face arrays, each face's eccentricity and first
        farthest face, are held twice: per block and joined.  The face table
        alone, faces² entries, exceeds what the pass may hold.
        """
        grid = build_grid(grid40[0].domain)
        faces, cells = len(grid.faces()), int(grid.inside.sum())
        block = _block_sources(cells)
        words = block // 64
        tracemalloc.start()
        try:
            ecc, farthest = grid._farthest
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 40 * 8 * cells * words + 16 * faces * block + 2 * (ecc.nbytes + farthest.nbytes)
        assert len(ecc) == len(farthest) == faces
        assert peak <= bound, (peak, bound, faces, cells, words)
        assert peak < faces * faces * ecc.itemsize, (peak, faces)


class TestFarRowsOnly:
    def test_grid120_far_ordiam_memory(self):
        """``far(ordiam)`` on the grid-120 ladder rung allocates its output and, past it, little more than its
        candidate rows: ``8 * ceil(m / 64)`` bytes each, plus the cached ``Levels._reach`` (8 bytes per row)
        and 32 KiB of small temporaries.  Computing every row costs about three outputs."""
        graph = decompose(gen_domain(GenParams(120, 120, int(0.45 * 120 * 120), holes=3, seed=1005)))[2]
        levels = all_pairs(graph)
        ordiam = levels.extreme("diameter")[0]
        fresh = Levels(graph, levels.planes)
        fresh._eccentricities
        tracemalloc.start()
        try:
            far = fresh.far(ordiam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = np.count_nonzero(fresh._reach >= ordiam)
        assert rows < graph.m // 100, rows
        assert peak < far.nbytes + rows * far.itemsize * far.shape[1] + 8 * graph.m + 32 * 1024, (peak, rows)


class TestRareShapes:
    """Shapes the generator rarely makes: a spiral corridor, and many 1-unit holes and corridors."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 12, 30])
    def test_spiral(self, k):
        domain = parse_domain(spiral(k))
        assert not validate(domain)
        report = run_verify(domain)
        assert_engines_equal_oracle(report)
        assert report["instance"]["n"] == 2 * k + 2

    @pytest.mark.parametrize("k", [1, 2, 5, 11, 20])
    def test_perforated(self, k):
        domain = parse_domain(perforated(k))
        assert not validate(domain)
        report = run_verify(domain)
        assert_engines_equal_oracle(report)
        assert report["instance"]["h"] == k
