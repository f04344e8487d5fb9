"""Random instance generation: determinism, validity, topology, feasibility."""

from dataclasses import replace

import numpy as np
import pytest

import reference
from conftest import CORPUS_SIZE, corpus_params
from rectilink import GenParams, domain_to_instance, gen_domain, generator
from rectilink.geometry import validate


class TestDeterminism:
    def test_same_seed_same_domain(self):
        params = GenParams(width=8, height=6, cells=30, holes=2, seed=123)
        assert domain_to_instance(gen_domain(params)) == domain_to_instance(gen_domain(params))

    def test_different_seeds_differ(self):
        a = gen_domain(GenParams(width=8, height=6, cells=30, holes=0, seed=1))
        b = gen_domain(GenParams(width=8, height=6, cells=30, holes=0, seed=2))
        assert domain_to_instance(a) != domain_to_instance(b)


class TestShapes:
    def test_unit_rectangle(self):
        domain = gen_domain(GenParams(width=1, height=1, cells=1, holes=0, seed=9))
        assert domain.n == 4 and domain.h == 0

    def test_full_block_with_center_hole(self):
        # 3x3 block: the only cell deep enough for a hole is the center
        domain = gen_domain(GenParams(width=3, height=3, cells=9, holes=1, scale=1000, seed=4))
        assert domain.n == 8 and domain.h == 1
        assert validate(domain).ok

    def test_requested_holes_produced(self):
        domain = gen_domain(GenParams(width=10, height=10, cells=95, holes=3, seed=21))
        assert domain.h == 3

    def test_all_seeds_validate(self):
        for seed in range(30):
            domain = gen_domain(GenParams(width=7, height=7, cells=35, holes=seed % 2, seed=seed))
            assert validate(domain).ok, seed

    def test_vertex_count_reproducible(self):
        counts = [gen_domain(GenParams(width=9, height=9, cells=50, holes=1, seed=s)).n for s in range(5)]
        assert counts == [gen_domain(GenParams(width=9, height=9, cells=50, holes=1, seed=s)).n for s in range(5)]


class TestFeasibility:
    def test_cells_exceed_grid(self):
        with pytest.raises(ValueError):
            gen_domain(GenParams(width=2, height=2, cells=5, holes=0, seed=0))

    def test_holes_do_not_fit(self):
        with pytest.raises(ValueError, match="hole"):
            gen_domain(GenParams(width=2, height=2, cells=4, holes=1, seed=0))

    def test_scale_too_small(self):
        with pytest.raises(ValueError, match="scale"):
            gen_domain(GenParams(width=6, height=6, cells=30, holes=0, scale=2, seed=3))

    def test_zero_grid(self):
        with pytest.raises(ValueError):
            gen_domain(GenParams(width=0, height=3, cells=1, holes=0, seed=0))


def _outcome(gen, params: GenParams):
    """The generated instance, or the text of the ValueError that refuses the parameters."""
    try:
        return domain_to_instance(gen(params))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _border_cases():
    """Shapes where the padded masks, the flood and the 3x3 windows meet the grid's edge."""
    cases = []
    for seed in range(4):
        for width, height in ((1, 9), (9, 1), (1, 1), (2, 2), (3, 3), (5, 5), (7, 4)):
            full = width * height
            for cells in sorted({1, max(1, full // 2), full}):
                for holes in (0, 1, 2):
                    cases.append(GenParams(width, height, cells, holes, seed=seed))
        cases.append(GenParams(3, 3, 9, 1, seed=seed))
        cases.append(GenParams(10, 10, 100, 4, seed=seed))
        cases.append(GenParams(8, 8, 40, 0, scale=6, seed=seed))  # scale too small
    return cases


class TestMatchesReference:
    """Every domain, and every refusal, is the one the cell-by-cell generator in
    ``tests/reference.py`` makes for the same parameters."""

    def test_corpus_with_hole_fallbacks(self):
        fallbacks = 0
        for k in range(CORPUS_SIZE):
            params = corpus_params(k)
            while True:
                got = _outcome(gen_domain, params)
                assert got == _outcome(reference.gen_domain, params), params
                if not isinstance(got, str) or params.holes == 0:
                    break
                fallbacks += 1
                params = replace(params, holes=params.holes - 1)
        assert fallbacks > 0  # the refusals were compared too

    @pytest.mark.parametrize(
        "params",
        [GenParams(40, 40, 720, 3, seed=s) for s in range(1000, 1032)]
        + [GenParams(120, 120, 6480, 3, seed=s) for s in (1000, 1005)],
        ids=lambda p: f"grid{p.width}-seed{p.seed}",
    )
    def test_benchmark_grids(self, params):
        assert _outcome(gen_domain, params) == _outcome(reference.gen_domain, params)

    def test_border_cases(self):
        outcomes = []
        for params in _border_cases():
            got = _outcome(gen_domain, params)
            assert got == _outcome(reference.gen_domain, params), params
            outcomes.append(got)
        errors = [o for o in outcomes if isinstance(o, str)]
        assert any("could not place hole" in e for e in errors)
        assert any("scale 6 too small" in e for e in errors)
        assert any(isinstance(o, dict) and o["holes"] for o in outcomes)


def _random_masks():
    """Masks of every density from 1x1 up, strips included, with pinches, holes and enclosed pockets."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        shape = tuple(rng.integers(1, 12, size=2))
        yield rng.random(shape) < rng.uniform(0.1, 0.95)


class TestMaskStepsMatchReference:
    """The mask steps the seeded runs above seldom reach (a hole never disconnects
    the mask, and pinches are rare), each against its cell-by-cell reference."""

    def test_connected(self):
        outcomes = set()
        for mask in _random_masks():
            got = generator._connected(mask)
            assert got == reference._connected(mask), mask
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_fill_enclosed(self):
        rng = np.random.default_rng(8)
        filled = 0
        for mask in _random_masks():
            keep = (rng.random(mask.shape) < 0.2) & ~mask
            for spare in (None, keep):
                got, want = mask.copy(), mask.copy()
                changed = generator._fill_enclosed(got, spare)
                assert changed == reference._fill_enclosed(want, spare)
                assert (got == want).all(), mask
                filled += changed
        assert filled > 0

    def test_repair_pinches(self):
        repaired = 0
        for mask in _random_masks():
            got, want = mask.copy(), mask.copy()
            changed = generator._repair_pinches(got)
            assert changed == reference._repair_pinches(want)
            assert (got == want).all(), mask
            repaired += changed
        assert repaired > 0
