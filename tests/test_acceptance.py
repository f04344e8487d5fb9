"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 10 is a soft performance check: it reports and flags instead
of failing on a slow machine.
"""

import random
import time

import numpy as np
import pytest

from rectilink import GenParams, gen_domain, oracle_distance, point_distance, prepare, run_verify, solve
from rectilink.cli import main as cli_main
from rectilink.crossing import CrossingStore, StoredSegment
from rectilink.geometry import Orientation
from rectilink.graph import middle_segment

from reference import ScanCrossingStore

H, V = Orientation.HORIZONTAL, Orientation.VERTICAL


@pytest.fixture(scope="module")
def reports(corpus):
    return [(inst, run_verify(inst.domain, prep=inst.prep, grid=inst.grid)) for inst in corpus]


def test_criterion_1_fixture_exactness(square, lshape, donut):
    expected = {"SQUARE": (2, 2), "LSHAPE": (2, 2), "DONUT": (3, 2)}
    for inst in (square, lshape, donut):
        dia, rad = expected[inst.name]
        for algo in ("edge-scan", "matmul", "fast"):
            assert solve("diameter", algo, inst.prep).result.value == dia, (inst.name, algo)
        for algo in ("edge-scan", "matmul"):
            assert solve("radius", algo, inst.prep).result.value == rad, (inst.name, algo)
    assert (donut.prep.summary.ordiam, donut.prep.summary.orrad) == (5, 4)
    assert lshape.prep.summary.orrad == 3  # radius must route to the fallback
    assert solve("radius", "edge-scan", lshape.prep).routed
    print("\nACCEPTANCE 1 PASS: fixture exactness (SQUARE 2/2, LSHAPE 2/2, DONUT 3/2; DONUT extremes 5/4)")


def test_criterion_2_oracle_equivalence(reports):
    assert len(reports) >= 200
    for inst, report in reports:
        oracle_dia = report["diameter"]["oracle"]["value"]
        oracle_rad = report["radius"]["oracle"]["value"]
        for algo in ("edge-scan", "matmul", "fast"):
            assert report["diameter"][algo]["value"] == oracle_dia, inst.name
        for algo in ("edge-scan", "matmul"):
            assert report["radius"][algo]["value"] == oracle_rad, inst.name
    print(f"\nACCEPTANCE 2 PASS: all engines equal the oracle on {len(reports)} generated instances")


def test_criterion_3_candidate_sandwich(reports):
    checked_dia = checked_rad = 0
    for inst, report in reports:
        ordiam = inst.prep.summary.ordiam
        orrad = inst.prep.summary.orrad
        if ordiam >= 4:
            checked_dia += 1
            assert report["diameter"]["oracle"]["value"] in (ordiam - 1, ordiam - 2), inst.name
        if orrad >= 4:
            checked_rad += 1
            assert report["radius"]["oracle"]["value"] in (orrad - 1, orrad - 2), inst.name
    assert checked_dia and checked_rad
    print(
        f"\nACCEPTANCE 3 PASS: oracle diameter/radius within the predicted two candidates"
        f" ({checked_dia} diameter, {checked_rad} radius instances)"
    )


def test_criterion_4_distance_laws(corpus):
    rng = np.random.default_rng(404)
    for inst in corpus:
        dm = inst.prep.dm.astype(np.int64)
        assert np.array_equal(dm, dm.T), inst.name
        edges = np.asarray(inst.prep.graph.edges)
        flips = np.abs(dm[edges[:, 0]] - dm[edges[:, 1]])
        assert (flips == 1).all(), inst.name
        quads = 100_000
        a = edges[rng.integers(0, len(edges), quads)]
        b = edges[rng.integers(0, len(edges), quads)]
        swap = rng.integers(0, 2, quads).astype(bool)
        b_first = np.where(swap, b[:, 1], b[:, 0])
        b_second = np.where(swap, b[:, 0], b[:, 1])
        delta = dm[a[:, 0], b_first] - dm[a[:, 1], b_second]
        assert set(np.unique(delta)) <= {-2, 0, 2}, inst.name
    print(f"\nACCEPTANCE 4 PASS: symmetry, unit flips and 1e5 sampled quadruple deltas on {len(corpus)} instances")


def _sample_generic_points(rng, inst, count):
    grid = inst.grid
    ys, xs = np.nonzero(grid.inside)
    points = []
    for _ in range(count):
        k = int(rng.integers(0, len(ys)))
        iy, ix = int(ys[k]), int(xs[k])
        points.append(
            (
                int(rng.integers(grid.xs[ix] + 1, grid.xs[ix + 1])),
                int(rng.integers(grid.ys[iy] + 1, grid.ys[iy + 1])),
            )
        )
    return points


def test_criterion_5_point_formula_vs_oracle(fixtures, corpus):
    rng = np.random.default_rng(505)
    suite = fixtures + corpus[::10][:20]
    pair_goal = 1000
    for inst in suite:
        sources = _sample_generic_points(rng, inst, 32)
        targets = _sample_generic_points(rng, inst, 32)
        pairs = 0
        for p in sources:
            for q in targets:
                formula = point_distance(inst.prep.hdec, inst.prep.vdec, inst.prep.graph, p, q)
                assert formula == oracle_distance(inst.grid, p, q), (inst.name, p, q)
                pairs += 1
        assert pairs >= pair_goal
    print(f"\nACCEPTANCE 5 PASS: four-way minimum equals the oracle on {pair_goal}+ pairs x {len(suite)} instances")


def test_criterion_6_structural(corpus):
    for inst in corpus:
        assert len(inst.prep.hdec) == len(inst.prep.vdec), inst.name
    checked = 0
    for inst in corpus:
        g = inst.prep.graph
        if g.m > 200:
            continue
        checked += 1
        hs = [g.rects[i] for i in range(g.nh)]
        vs = [g.rects[j] for j in range(g.nh, g.m)]
        hx1 = np.array([r.xmin for r in hs])[:, None]
        hx2 = np.array([r.xmax for r in hs])[:, None]
        hy1 = np.array([r.ymin for r in hs])[:, None]
        hy2 = np.array([r.ymax for r in hs])[:, None]
        vx1 = np.array([r.xmin for r in vs])[None, :]
        vx2 = np.array([r.xmax for r in vs])[None, :]
        vy1 = np.array([r.ymin for r in vs])[None, :]
        vy2 = np.array([r.ymax for r in vs])[None, :]
        area = (np.minimum(hx2, vx2) > np.maximum(hx1, vx1)) & (np.minimum(hy2, vy2) > np.maximum(hy1, vy1))
        containment = (hx1 <= vx1) & (vx2 <= hx2) & (vy1 <= hy1) & (hy2 <= vy2)
        mh = [middle_segment(r) for r in hs]
        mv = [middle_segment(r) for r in vs]
        mh_fixed = np.array([s.fixed for s in mh])[:, None]
        mh_lo = np.array([s.lo for s in mh])[:, None]
        mh_hi = np.array([s.hi for s in mh])[:, None]
        mv_fixed = np.array([s.fixed for s in mv])[None, :]
        mv_lo = np.array([s.lo for s in mv])[None, :]
        mv_hi = np.array([s.hi for s in mv])[None, :]
        crossing = (mh_lo <= mv_fixed) & (mv_fixed <= mh_hi) & (mv_lo <= mh_fixed) & (mh_fixed <= mv_hi)
        assert np.array_equal(area, containment) and np.array_equal(area, crossing), inst.name
        edges = np.zeros_like(area)
        for i, j in g.edges:
            edges[i, j - g.nh] = True
        assert np.array_equal(area, edges), inst.name
    assert checked >= 100
    print(f"\nACCEPTANCE 6 PASS: crossing <=> area <=> containment on {checked} instances; |H| == |V| on all")


def test_criterion_7_witness_validity(reports):
    for inst, report in reports:
        for algo, entry in report["diameter"].items():
            assert entry["witness_ok"], (inst.name, "diameter", algo)
        for algo, entry in report["radius"].items():
            assert entry["witness_ok"], (inst.name, "radius", algo)
    print(f"\nACCEPTANCE 7 PASS: every diametral pair and center validated by the oracle on {len(reports)} instances")


def test_criterion_8_crossing_store_oracle():
    rng = random.Random(808)
    sequences = 10_000

    def segment(axis, owner):
        lo = rng.randrange(-24, 23)
        hi = rng.randrange(lo + 1, 24)
        return StoredSegment(axis, fixed=rng.randrange(-24, 24), lo=lo, hi=hi, owner=owner)

    for _ in range(sequences):
        axis = H if rng.random() < 0.5 else V
        segments = [segment(axis, owner) for owner in range(rng.randrange(0, 8))]
        real = CrossingStore.reset(segments, axis=axis)
        ref = ScanCrossingStore.reset(segments, axis=axis)
        for _ in range(rng.randrange(1, 6)):
            q = segment(axis.opposite, 10_000)
            assert real.pop_crossing(q) == ref.pop_crossing(q)
            assert len(real) == len(ref)
    print(f"\nACCEPTANCE 8 PASS: {sequences} randomized reset/pop sequences match the quadratic reference")


def test_criterion_9_branch_coverage(reports):
    seen = set()
    for inst, report in reports:
        ordiam = inst.prep.summary.ordiam
        orrad = inst.prep.summary.orrad
        dia = report["diameter"]["edge-scan"]
        rad = report["radius"]["edge-scan"]
        if dia["routed_to_fallback"]:
            seen.add("fallback-routed")
        else:
            seen.add("diameter-1" if dia["value"] == ordiam - 1 else "diameter-2")
        if rad["routed_to_fallback"]:
            seen.add("fallback-routed")
        else:
            seen.add("radius-1" if rad["value"] == orrad - 1 else "radius-2")
    needed = {"diameter-1", "diameter-2", "radius-1", "radius-2", "fallback-routed"}
    assert needed <= seen, f"missing branches: {needed - seen}"
    print(f"\nACCEPTANCE 9 PASS: corpus covers {sorted(needed)}")


def test_criterion_10_performance_soft(tmp_path, capsys):
    flags = []

    t0 = time.perf_counter()
    big = gen_domain(GenParams(width=200, height=200, cells=int(200 * 200 * 0.45), holes=3, seed=3))
    prep = prepare(big)
    solve("diameter", "fast", prep)
    fast_elapsed = time.perf_counter() - t0
    assert 4000 <= big.n <= 6500
    if fast_elapsed > 60:
        flags.append(f"fast pipeline took {fast_elapsed:.1f}s (> 60s)")

    t0 = time.perf_counter()
    medium = gen_domain(GenParams(width=100, height=100, cells=int(100 * 100 * 0.4), holes=3, seed=13))
    prep2 = prepare(medium)
    solve("diameter", "matmul", prep2)
    solve("radius", "matmul", prep2)
    matmul_elapsed = time.perf_counter() - t0
    assert prep2.graph.m >= 2000
    if matmul_elapsed > 60:
        flags.append(f"matmul pipeline took {matmul_elapsed:.1f}s (> 60s)")

    sample = tmp_path / "bench-instance.json"
    import json

    from rectilink import domain_to_instance

    small = gen_domain(GenParams(width=8, height=8, cells=40, holes=1, seed=5))
    sample.write_text(json.dumps(domain_to_instance(small)))
    code = cli_main(["bench", str(sample)])
    bench_out = capsys.readouterr().out
    assert code == 0 and "chi" in bench_out.splitlines()[0]

    verdict = "PASS" if not flags else "FLAG (" + "; ".join(flags) + ")"
    print(
        f"\nACCEPTANCE 10 {verdict}: fast engine n={big.n} in {fast_elapsed:.1f}s;"
        f" matmul m={prep2.graph.m} in {matmul_elapsed:.1f}s; bench reports chi"
    )
