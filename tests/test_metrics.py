"""Point distance formula, the three engines, boolean products, fallback, witnesses."""

import numpy as np
import pytest

import rectilink.metrics
from rectilink import GenParams, gen_domain, oracle_distance, point_distance, prepare
from rectilink.geometry import Orientation, locate
from rectilink.metrics import (
    BitMatrix,
    bool_product,
    compute,
    diameter_edge_scan,
    diameter_fast,
    diameter_matmul,
    overlay_faces,
    radius_edge_scan,
    radius_matmul,
    small_case_fallback,
)
from rectilink.oracle import oracle_eccentricity

from reference import ScanCrossingStore


def rect_by_box(graph, box):
    for r in graph.rects:
        if r.box() == box:
            return r.id
    raise AssertionError(f"no rect with box {box}")


def dist(inst, p, q):
    return point_distance(inst.prep.hdec, inst.prep.vdec, inst.prep.graph, p, q)


def table_distance(prep, p, q):
    """The four-way minimum read from the all-pairs table, as before the graph search."""
    if p == q:
        return 0
    nh = prep.graph.nh
    rp = locate(prep.hdec, p) | {nh + i for i in locate(prep.vdec, p)}
    rq = locate(prep.hdec, q) | {nh + i for i in locate(prep.vdec, q)}
    if rp & rq:
        return 1 if (p[0] == q[0] or p[1] == q[1]) else 2
    return int(min(prep.dm[a, b] for a in rp for b in rq))


def odd_between(rng, lo, hi):
    """A half-unit (odd doubled) coordinate strictly between two even ones."""
    return lo + 1 + 2 * int(rng.integers((hi - lo) // 2))


class TestPointDistance:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_table_on_grid_60(self, seed):
        """Instances too large for the oracle: the graph search equals the table's four-way minimum."""
        prep = prepare(gen_domain(GenParams(60, 60, 1620, holes=3, seed=seed)))
        rects = prep.graph.rects
        rng = np.random.default_rng(seed)

        def generic():
            r = rects[rng.integers(len(rects))]
            return (odd_between(rng, r.xmin, r.xmax), odd_between(rng, r.ymin, r.ymax))

        def on_slab_boundary():
            """The top side of a horizontal rectangle or the right side of a vertical one, shared with a neighbour."""
            while True:
                r = rects[rng.integers(len(rects))]
                if r.orientation is Orientation.HORIZONTAL:
                    p, dec = (odd_between(rng, r.xmin, r.xmax), r.ymax), prep.hdec
                else:
                    p, dec = (r.xmax, odd_between(rng, r.ymin, r.ymax)), prep.vdec
                if len(locate(dec, p)) == 2:
                    return p

        pairs = [(generic(), generic()) for _ in range(200)]
        pairs += [(on_slab_boundary(), generic()) for _ in range(50)]
        pairs += [(generic(), on_slab_boundary()) for _ in range(50)]
        for p, q in pairs:
            assert point_distance(prep.hdec, prep.vdec, prep.graph, p, q) == table_distance(prep, p, q), (p, q)

    def test_donut_around_hole(self, donut):
        assert dist(donut, (14, 6), (14, 22)) == 3  # (7,3) -> (7,11)

    def test_donut_diagonal(self, donut):
        assert dist(donut, (6, 6), (22, 22)) == 2  # (3,3) -> (11,11)

    def test_square_shared_coordinate(self, square):
        assert dist(square, (2, 2), (2, 14)) == 1  # (1,1) -> (1,7)

    def test_square_generic(self, square):
        assert dist(square, (2, 2), (14, 6)) == 2

    def test_coincident(self, donut):
        assert dist(donut, (14, 6), (14, 6)) == 0

    def test_symmetric(self, donut):
        for p, q in [((14, 6), (14, 22)), ((6, 6), (22, 22)), ((2, 2), (26, 2))]:
            assert dist(donut, p, q) == dist(donut, q, p)


class TestOrientedSpan:
    """The largest of the four oriented distances bounds the link distance to [span-2, span-1]."""

    def test_donut(self, donut):
        g, dm = donut.prep.graph, donut.prep.dm
        h1 = rect_by_box(g, (0, 28, 0, 12))
        h2 = rect_by_box(g, (0, 28, 16, 28))
        v3 = rect_by_box(g, (12, 16, 0, 12))
        v4 = rect_by_box(g, (12, 16, 16, 28))
        span = int(dm[np.ix_((h1, v3), (h2, v4))].max())
        assert span == 5
        rld = dist(donut, (14, 6), (14, 22))
        assert span - 2 <= rld <= span - 1

    def test_lshape(self, lshape):
        g, dm = lshape.prep.graph, lshape.prep.dm
        h1 = rect_by_box(g, (0, 20, 0, 8))
        h2 = rect_by_box(g, (0, 8, 8, 20))
        v1 = rect_by_box(g, (0, 8, 0, 20))
        v2 = rect_by_box(g, (8, 20, 0, 8))
        assert dm[np.ix_((h2, v1), (h1, v2))].max() == 4

    def test_sandwich_on_generated(self, corpus):
        rng = np.random.default_rng(3)
        for inst in corpus[:10]:
            g = inst.prep.graph
            for _ in range(40):
                p = sample_point(rng, inst)
                q = sample_point(rng, inst)
                rp = containing_pair(inst, p)
                rq = containing_pair(inst, q)
                if rp is None or rq is None or set(rp) & set(rq):
                    continue
                span = int(inst.prep.dm[np.ix_(rp, rq)].max())
                rld = dist(inst, p, q)
                assert span - 2 <= rld <= span - 1


def sample_point(rng, inst):
    grid = inst.grid
    ys, xs = np.nonzero(grid.inside)
    k = rng.integers(0, len(ys))
    iy, ix = int(ys[k]), int(xs[k])
    x = int(rng.integers(grid.xs[ix] + 1, grid.xs[ix + 1]))
    y = int(rng.integers(grid.ys[iy] + 1, grid.ys[iy + 1]))
    return (x, y)


def containing_pair(inst, p):
    hs = locate(inst.prep.hdec, p)
    vs = locate(inst.prep.vdec, p)
    if len(hs) != 1 or len(vs) != 1:
        return None
    return (hs.pop(), inst.prep.graph.nh + vs.pop())


def far_of(inst, kind):
    summary = inst.prep.summary
    return inst.prep.dm >= (summary.ordiam if kind == "diameter" else summary.orrad)


class TestEngineFixtures:
    def test_donut_diameter_all_engines(self, donut):
        for algo in ("edge-scan", "matmul", "fast"):
            res, _ = compute("diameter", donut.prep.graph, donut.prep.dm, donut.prep.summary, algo)
            assert res.value == 3
            assert res.pair == ((6, 14), (22, 14))  # (3,7) and (11,7) in input units

    def test_donut_radius_both_engines(self, donut):
        g = donut.prep.graph
        h1 = rect_by_box(g, (0, 28, 0, 12))
        v1 = rect_by_box(g, (0, 12, 0, 28))
        for engine in (radius_edge_scan, radius_matmul):
            assert engine(g, far_of(donut, "radius")) == (h1, v1)
        for algo in ("edge-scan", "matmul"):
            res, _ = compute("radius", g, donut.prep.dm, donut.prep.summary, algo)
            assert res.value == 2
            assert res.witness == ("edge", (h1, v1))
            assert res.center == (6, 6)  # (3,3)

    def test_lshape_diameter(self, lshape):
        for engine in (diameter_edge_scan, diameter_matmul, diameter_fast):
            assert engine(lshape.prep.graph, far_of(lshape, "diameter")) is None  # ordiam 4: value 4 - 2

    def test_decisions_are_witnesses(self, small_corpus):
        """A diameter quad joins two far pairs by edges; a radius edge is covered by no edge."""
        for inst in small_corpus[:40]:
            g, dm, summary = inst.prep.graph, inst.prep.dm, inst.prep.summary
            edges = set(g.edges) | {(b, a) for a, b in g.edges}
            far = far_of(inst, "diameter")
            for engine in (diameter_edge_scan, diameter_matmul, diameter_fast):
                quad = engine(g, far)
                if quad is not None:
                    i, ip, j, jp = quad
                    assert (i, ip) in edges and (j, jp) in edges, (inst.name, engine.__name__)
                    assert dm[i, j] == dm[ip, jp] == summary.ordiam, (inst.name, engine.__name__)
            far = far_of(inst, "radius")
            for engine in (radius_edge_scan, radius_matmul):
                edge = engine(g, far)
                if edge is not None:
                    h, v = edge
                    assert (h, v) in g.edges and h < g.nh <= v, (inst.name, engine.__name__)
                    assert not any(far[h, j] and far[v, jp] for j, jp in edges), (inst.name, engine.__name__)


class TestFallback:
    def test_square(self, square):
        g, dm = square.prep.graph, square.prep.dm
        assert small_case_fallback(g, dm, "diameter").value == 2
        assert small_case_fallback(g, dm, "radius").value == 2

    def test_lshape_radius(self, lshape):
        res = small_case_fallback(lshape.prep.graph, lshape.prep.dm, "radius")
        assert res.value == 2
        assert res.center == (4, 4)  # (2,2): the corner face reaches everything in 2

    def test_lshape_diameter_out_of_range_call(self, lshape):
        # enumeration is exact even above the routing threshold
        res = small_case_fallback(lshape.prep.graph, lshape.prep.dm, "diameter")
        assert res.value == 2

    def test_unknown_target(self, square):
        with pytest.raises(ValueError):
            small_case_fallback(square.prep.graph, square.prep.dm, "girth")

    def test_routing(self, square, lshape, donut):
        res, routed = compute("diameter", square.prep.graph, square.prep.dm, square.prep.summary, "fast")
        assert routed and res.engine == "fallback" and res.value == 2
        res, routed = compute("radius", lshape.prep.graph, lshape.prep.dm, lshape.prep.summary, "matmul")
        assert routed and res.engine == "fallback" and res.value == 2
        res, routed = compute("diameter", donut.prep.graph, donut.prep.dm, donut.prep.summary, "fast")
        assert not routed and res.engine == "fast"

    def test_unknown_algo(self, square):
        with pytest.raises(ValueError):
            compute("diameter", square.prep.graph, square.prep.dm, square.prep.summary, "quantum")


class TestBitMatrix:
    def test_identity(self):
        eye = BitMatrix.from_bool(np.eye(7, dtype=bool))
        rng = np.random.default_rng(0)
        x = BitMatrix.from_bool(rng.random((7, 7)) < 0.4)
        assert bool_product(eye, x).rows == x.rows

    def test_zeros(self):
        zeros = BitMatrix.from_bool(np.zeros((5, 5), dtype=bool))
        rng = np.random.default_rng(1)
        x = BitMatrix.from_bool(rng.random((5, 5)) < 0.5)
        assert bool_product(zeros, x).rows == zeros.rows

    def test_dimension_mismatch(self):
        a = BitMatrix.from_bool(np.zeros((3, 4), dtype=bool))
        b = BitMatrix.from_bool(np.zeros((3, 4), dtype=bool))
        with pytest.raises(ValueError, match="dimension"):
            bool_product(a, b)

    def test_against_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m, k, n = rng.integers(1, 40, 3)
            a = rng.random((m, k)) < 0.3
            b = rng.random((k, n)) < 0.3
            expect = (a.astype(int) @ b.astype(int)) > 0
            got = bool_product(BitMatrix.from_bool(a), BitMatrix.from_bool(b))
            assert got.rows == BitMatrix.from_bool(expect).rows

    def test_donut_product_entry(self, donut):
        # crossing row of the left vertical slab reaches the right band through
        # the left band: I[v1, h3] and D[h3, h4] force M[v1, h4]
        g, dm = donut.prep.graph, donut.prep.dm
        v1 = rect_by_box(g, (0, 12, 0, 28))
        h3 = rect_by_box(g, (0, 12, 12, 16))
        h4 = rect_by_box(g, (16, 28, 12, 16))
        cross = np.zeros((g.m, g.m), dtype=bool)
        for i, j in g.edges:
            cross[i, j] = cross[j, i] = True
        assert cross[v1, h3] and dm[h3, h4] == 5
        m_matrix = bool_product(BitMatrix.from_bool(cross), BitMatrix.from_bool(dm == 5))
        assert (m_matrix.rows[v1] >> h4) & 1


class TestMatmulPathEquivalence:
    def test_product_matches_quadruple_enumeration(self, small_corpus):
        checked = 0
        for inst in small_corpus:
            g, dm = inst.prep.graph, inst.prep.dm
            if g.m > 30 or inst.prep.summary.ordiam < 4:
                continue
            checked += 1
            big = inst.prep.summary.ordiam
            cross = np.zeros((g.m, g.m), dtype=bool)
            for i, j in g.edges:
                cross[i, j] = cross[j, i] = True
            far = BitMatrix.from_bool(dm == big)
            cross_bits = BitMatrix.from_bool(cross)
            product = bool_product(far, bool_product(cross_bits, far))
            for i in range(g.m):
                for ip in range(g.m):
                    brute = any(
                        dm[i, j] == big and dm[ip, jp] == big
                        for j, jp in list(g.edges) + [(b, a) for a, b in g.edges]
                    )
                    assert bool((product.rows[i] >> ip) & 1) == brute
            if checked >= 6:
                break
        assert checked >= 3


def edge_scan(inst, kind):
    return compute(kind, inst.prep.graph, inst.prep.dm, inst.prep.summary, "edge-scan")[0]


class TestWitnesses:
    def test_donut_diameter_pair_oracle_valid(self, donut):
        res = edge_scan(donut, "diameter")
        assert oracle_distance(donut.grid, *res.pair) == res.value

    def test_donut_radius_center_oracle_valid(self, donut):
        res = edge_scan(donut, "radius")
        assert oracle_eccentricity(donut.grid, res.center) == res.value

    def test_square_center(self, square):
        res = small_case_fallback(square.prep.graph, square.prep.dm, "radius")
        assert oracle_eccentricity(square.grid, res.center) == 2

    def test_far_pair_witness_distance(self, donut):
        res = edge_scan(donut, "diameter")
        i, j = res.witness_rects
        assert donut.prep.dm[i, j] == donut.prep.summary.ordiam


class TestEngineAgreement:
    def test_diameter_engines_agree(self, corpus):
        for inst in corpus[:50]:
            values = {
                compute("diameter", inst.prep.graph, inst.prep.dm, inst.prep.summary, algo)[0].value
                for algo in ("edge-scan", "matmul", "fast")
            }
            assert len(values) == 1, inst.name

    def test_radius_engines_agree(self, corpus):
        for inst in corpus[:50]:
            values = {
                compute("radius", inst.prep.graph, inst.prep.dm, inst.prep.summary, algo)[0].value
                for algo in ("edge-scan", "matmul")
            }
            assert len(values) == 1, inst.name

    def test_fast_engine_with_reference_store(self, corpus, monkeypatch):
        cases = [(inst.prep.graph, far_of(inst, "diameter")) for inst in corpus[:25] if inst.prep.summary.ordiam >= 4]
        decisions = [diameter_fast(graph, far) for graph, far in cases]
        monkeypatch.setattr(rectilink.metrics, "CrossingStore", ScanCrossingStore)
        for (graph, far), a in zip(cases, decisions):
            b = diameter_fast(graph, far)
            assert (a is None) == (b is None)

    def test_faces_partition_area(self, small_corpus):
        for inst in small_corpus[:15]:
            faces = overlay_faces(inst.prep.graph)
            face_area = sum((f.box[1] - f.box[0]) * (f.box[3] - f.box[2]) for f in faces)
            assert face_area == sum((r.xmax - r.xmin) * (r.ymax - r.ymin) for r in inst.prep.hdec.rects)
