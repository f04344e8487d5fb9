"""Random instance generation: determinism, validity, topology, feasibility."""

import pytest

from rectilink import GenParams, domain_to_instance, gen_domain
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
