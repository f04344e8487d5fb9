"""Point distance formula, the three engines, boolean products, fallback, witnesses."""

import itertools
import logging
import re
import tracemalloc

import numpy as np
import pytest

import rectilink.metrics
from rectilink import GenParams, gen_domain, oracle_distance, parse_domain, point_distance
from rectilink.crossing import CrossingStore
from rectilink.geometry import Decomposition, Orientation, locate
from rectilink.graph import all_pairs, build_graph
from rectilink.pipeline import decompose, prepare
from rectilink.metrics import (
    _edge_products,
    _far_products,
    _far_row_edges,
    _popcount,
    compute,
    diameter_edge_scan,
    diameter_fast,
    diameter_matmul,
    overlay_faces,
    radius_edge_scan,
    radius_matmul,
    small_case_fallback,
)
from rectilink.oracle import build_grid, oracle_eccentricity

import reference
from reference import ScanCrossingStore, graph_rects, levels_table, packed, reference_table, unpacked

from conftest import comb, perforated, spiral, staircase


def rect_by_box(graph, box):
    rows = graph.boxes.tolist()
    assert list(box) in rows, f"no rect with box {box}"
    return rows.index(list(box))


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
    dm = reference_table(prep.graph)
    return int(min(dm[a, b] for a in rp for b in rq))


def odd_between(rng, lo, hi):
    """A half-unit (odd doubled) coordinate strictly between two even ones."""
    return lo + 1 + 2 * int(rng.integers((hi - lo) // 2))


class TestPointDistance:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_table_on_grid_60(self, seed, grid60):
        """Instances too large for the oracle: the graph search equals the table's four-way minimum."""
        prep = grid60[seed - 1]
        rects = prep.hdec.rects + prep.vdec.rects
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
        g, dm = donut.prep.graph, levels_table(donut.prep.levels)
        h1 = rect_by_box(g, (0, 28, 0, 12))
        h2 = rect_by_box(g, (0, 28, 16, 28))
        v3 = rect_by_box(g, (12, 16, 0, 12))
        v4 = rect_by_box(g, (12, 16, 16, 28))
        span = int(dm[np.ix_((h1, v3), (h2, v4))].max())
        assert span == 5
        rld = dist(donut, (14, 6), (14, 22))
        assert span - 2 <= rld <= span - 1

    def test_lshape(self, lshape):
        g, dm = lshape.prep.graph, levels_table(lshape.prep.levels)
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
                span = int(levels_table(inst.prep.levels)[np.ix_(rp, rq)].max())
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
    """The packed far relation the router hands the ``kind`` engines."""
    return inst.prep.levels.far(inst.prep.levels.extreme(kind)[0])


class TestEngineFixtures:
    def test_donut_diameter_all_engines(self, donut):
        for algo in ("edge-scan", "matmul", "fast"):
            res = compute("diameter", donut.prep.levels, algo)
            assert res.value == 3
            assert res.pair == ((6, 14), (22, 14))  # (3,7) and (11,7) in input units

    def test_donut_radius_both_engines(self, donut):
        g = donut.prep.graph
        h1 = rect_by_box(g, (0, 28, 0, 12))
        v1 = rect_by_box(g, (0, 12, 0, 28))
        for engine in (radius_edge_scan, radius_matmul):
            assert engine(g, far_of(donut, "radius")) == (h1, v1)
        for algo in ("edge-scan", "matmul"):
            res = compute("radius", donut.prep.levels, algo)
            assert res.value == 2
            assert res.witness == ("edge", (h1, v1))
            assert res.center == (6, 6)  # (3,3)

    def test_lshape_diameter(self, lshape):
        for engine in (diameter_edge_scan, diameter_matmul, diameter_fast):
            assert engine(lshape.prep.graph, far_of(lshape, "diameter")) is None  # ordiam 4: value 4 - 2

    def test_decisions_are_witnesses(self, small_corpus):
        """A diameter quad joins two far pairs by edges; a radius edge is covered by no edge."""
        for inst in small_corpus[:40]:
            g, dm, (ordiam, _) = inst.prep.graph, levels_table(inst.prep.levels), inst.prep.levels.extreme("diameter")
            edge_list = list(map(tuple, g.edges.tolist()))
            edges = set(edge_list) | {(b, a) for a, b in edge_list}
            far = far_of(inst, "diameter")
            for engine in (diameter_edge_scan, diameter_matmul, diameter_fast):
                quad = engine(g, far)
                if quad is not None:
                    i, ip, j, jp = quad
                    assert (i, ip) in edges and (j, jp) in edges, (inst.name, engine.__name__)
                    assert dm[i, j] == dm[ip, jp] == ordiam, (inst.name, engine.__name__)
            bits = far_of(inst, "radius")
            far = unpacked(bits)
            for engine in (radius_edge_scan, radius_matmul):
                edge = engine(g, bits)
                if edge is not None:
                    h, v = edge
                    assert (h, v) in edge_list and h < g.nh <= v, (inst.name, engine.__name__)
                    assert not any(far[h, j] and far[v, jp] for j, jp in edges), (inst.name, engine.__name__)


def sink_far(graph, planted):
    """Far rows for every rectangle outside one rectangle's neighbourhood, yet no edge covers another.

    Every such rectangle is far from one horizontal sink ``s`` only, and the
    edges at ``s`` are dropped because their other end is no far row.  Then
    ``planted`` (pairs of far entries) adds the only covers, so both scans
    must walk past more than one chunk of kept edges to meet them.
    """
    s = int(graph.edges[0, 0])
    far = np.zeros((graph.m, graph.m), dtype=bool)
    rows = np.ones(graph.m, dtype=bool)
    rows[[s, *graph.neighbours(s).tolist()]] = False
    far[s, rows] = far[rows, s] = True
    for a, b in planted:
        far[a, b] = far[b, a] = True
    return far


def synthetic_far_relations(graph):
    """Named symmetric far relations a real table rarely gives: dense, random, nearly full, planted."""
    rng = np.random.default_rng(7)
    m, edges = graph.m, graph.edges.tolist()
    out = {"all": np.ones((m, m), dtype=bool)}
    for density in (0.05, 0.5):
        upper = np.triu(rng.random((m, m)) < density, 1)
        out[f"random-{density}"] = upper | upper.T
    # every row far except a few horizontal ones, whose edges all lie past the first chunk
    late = sorted({edges[k][0] for k in (len(edges) // 2, 3 * len(edges) // 4, len(edges) - 1)})
    far = np.ones((m, m), dtype=bool)
    far[late] = far[:, late] = False
    out["all-but-late-rows"] = far
    (p0, p1), (q0, q1) = edges[2 * len(edges) // 3], edges[len(edges) - 2]
    out["planted-straight"] = sink_far(graph, [(p0, q0), (p1, q1)])
    out["planted-crossed"] = sink_far(graph, [(p0, q1), (p1, q0)])
    return out


class TestEdgeScanMatchesReference:
    """The packed, pruned scans return exactly the one-byte-per-pair scan's decision."""

    @pytest.mark.parametrize("collection", ["fixtures", "corpus", "grid40", "grid60"])
    def test_table_far_relations(self, collection, request):
        """The radius at every threshold from ``orrad + 1`` down to 4, or to ``orrad`` where that is lower.

        From 4 up the columns run by degree, not edge order.  The far
        relation only grows as the threshold falls, so once the reference
        covers every edge it covers every edge below: its full scan runs
        once per instance.
        """
        preps = [getattr(inst, "prep", inst) for inst in request.getfixturevalue(collection)]
        for k, prep in enumerate(preps):
            (ordiam, _), (orrad, _) = (prep.levels.extreme(kind) for kind in ("diameter", "radius"))
            far = prep.levels.far(ordiam)
            assert diameter_edge_scan(prep.graph, far) == reference.diameter_edge_scan(prep.graph, unpacked(far)), k
            edge = ()  # the reference's decision one threshold up: not yet None
            for t in range(orrad + 1, min(orrad, 4) - 1, -1):
                far = prep.levels.far(t)
                edge = None if edge is None else reference.radius_edge_scan(prep.graph, unpacked(far))
                assert radius_edge_scan(prep.graph, far) == radius_matmul(prep.graph, far) == edge, (k, t)

    def test_synthetic_far_relations(self, grid60):
        """Dense, random and planted relations; the planted quads and the first uncovered edge lie past the first chunk."""
        graph = grid60[0].graph
        assert graph.chi > 2 * reference._EDGE_CHUNK
        position = {e: k for k, e in enumerate(map(tuple, graph.edges.tolist()))}
        for name, far in synthetic_far_relations(graph).items():
            quad, edge = reference.diameter_edge_scan(graph, far), reference.radius_edge_scan(graph, far)
            assert diameter_edge_scan(graph, packed(far)) == quad, name
            assert radius_edge_scan(graph, packed(far)) == edge, name
            if name.startswith("planted"):
                rows = far.any(axis=1)
                kept = [k for k, (a, b) in enumerate(graph.edges.tolist()) if rows[a] and rows[b]]
                assert kept.index(position[quad[:2]]) > reference._EDGE_CHUNK, name
            if name == "all-but-late-rows":
                assert position[edge] > reference._EDGE_CHUNK


class TestEdgeScanColumnBlocks:
    """With the column block forced small, the scans cross many blocks and still return the reference's decision."""

    BLOCK = 60  # not a multiple of 8: every block's packed rows end in pad bits

    @pytest.fixture(autouse=True)
    def small_block(self, monkeypatch):
        monkeypatch.setattr(rectilink.metrics, "_COLUMN_BLOCK", self.BLOCK)

    def test_table_far_relations(self, grid60):
        """At ordiam the edges between far rows are few, so the diameter also runs four thresholds below it."""
        for k, prep in enumerate(grid60):
            graph = prep.graph
            (ordiam, _), (orrad, _) = (prep.levels.extreme(kind) for kind in ("diameter", "radius"))
            assert graph.chi > 50 * self.BLOCK
            lowest = prep.levels.far(ordiam - 4)
            assert len(_far_row_edges(graph, lowest.any(axis=1))) > 2 * self.BLOCK
            for t in range(ordiam - 4, ordiam + 1):
                far = prep.levels.far(t)
                assert diameter_edge_scan(graph, far) == reference.diameter_edge_scan(graph, unpacked(far)), (k, t)
            for t in (orrad, orrad + 1):
                far = prep.levels.far(t)
                assert radius_edge_scan(graph, far) == reference.radius_edge_scan(graph, unpacked(far)), (k, t)

    def test_synthetic_far_relations(self, grid60):
        """The planted quads' covering edge and the first uncovered edge lie past the first two blocks.

        In the planted chain p covers q and q covers r, three edges in three
        blocks: the block of p finds row q, the block of q the lower row p,
        and the block of r, scanning only the rows before p, finds none.
        """
        graph = grid60[0].graph
        edges = graph.edges.tolist()
        position = {e: k for k, e in enumerate(map(tuple, edges))}
        (p0, p1), (q0, q1), (r0, r1) = (edges[k] for k in (len(edges) // 3, 2 * len(edges) // 3, len(edges) - 2))
        relations = synthetic_far_relations(graph)
        relations["planted-chain"] = sink_far(graph, [(p0, q0), (p1, q1), (q0, r0), (q1, r1)])
        assert reference.diameter_edge_scan(graph, relations["planted-chain"]) == (p0, p1, q0, q1)
        for name, far in relations.items():
            quad, edge = reference.diameter_edge_scan(graph, far), reference.radius_edge_scan(graph, far)
            assert diameter_edge_scan(graph, packed(far)) == quad, name
            assert radius_edge_scan(graph, packed(far)) == edge, name
            if name.startswith("planted"):
                rows = far.any(axis=1)
                kept = [k for k, (a, b) in enumerate(edges) if rows[a] and rows[b]]
                column = kept.index(position[tuple(sorted(quad[2:]))])
                assert column > 2 * self.BLOCK, name
                assert column % self.BLOCK % 8, name  # not bit 0 of a byte: a wrong bit order reads another column
            if name == "all-but-late-rows":
                assert position[edge] > 2 * self.BLOCK


def lone_cover(graph):
    """A far relation, an edge e and the last edge c, whose degree key is the lowest, the only edge covering e.

    Every rectangle is far from every other, except that e's ends h and v
    are far only from c's ends c0 and c1 in turn, and c0 only from h.  So c
    is the only cover of e, and its key ``min(deg c0, deg c1)`` is 1, the
    lowest: of the edges with that key, c comes last in edge order, and last
    in the radius scan's column order.  e is the first edge with ends apart
    from c's.
    """
    edges = graph.edges.tolist()
    c0, c1 = edges[-1]
    h, v = next((h, v) for h, v in edges if h != c0 and v != c1)
    far = np.ones((graph.m, graph.m), dtype=bool)
    far[[h, v, c0]] = far[:, [h, v, c0]] = False
    for a, b in ((h, c0), (v, c1)):
        far[a, b] = far[b, a] = True
    return far, edges.index([h, v])


def radius_log(caplog, graph, far, combine=np.bitwise_or):
    """The radius edge-scan's decision on packed ``far``, and its debug line's blocks, columns taken, rows scanned."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="rectilink"):
        edge = radius_edge_scan(graph, far, combine)
    (message,) = [r.getMessage() for r in caplog.records]
    match = re.fullmatch(r"radius edge-scan: (\d+) blocks, (\d+)/(\d+) columns taken, (\d+) rows scanned", message)
    blocks, taken, chi, rows = map(int, match.groups())
    assert chi == graph.chi
    return edge, blocks, taken, rows


class TestRadiusColumnOrder:
    """The radius scan takes the columns by degree in growing blocks, and stops once every edge is covered."""

    @pytest.mark.parametrize("block", [None, 60])
    def test_lone_cover_in_the_last_block(self, grid60, block, caplog, monkeypatch):
        """Under the default block, the first block leaves between 1 and the next block's width of edges open, and
        the tail settles them against every column left: two blocks take every column, with the OR and the AND."""
        if block:
            monkeypatch.setattr(rectilink.metrics, "_COLUMN_BLOCK", block)
        graph = grid60[0].graph
        far, e = lone_cover(graph)
        (h, v), e0, e1 = graph.edges[e], graph.edges[:, 0], graph.edges[:, 1]
        covers = np.flatnonzero((far[h, e0] & far[v, e1]) | (far[h, e1] & far[v, e0]))
        assert covers.tolist() == [graph.chi - 1]
        degree = far.sum(axis=1)
        order = np.argsort(-np.minimum(degree[e0], degree[e1]), kind="stable")
        assert order[-1] == graph.chi - 1
        edge = reference.radius_edge_scan(graph, far)
        assert radius_edge_scan(graph, packed(far)) == radius_matmul(graph, packed(far)) == edge
        assert edge is None or e < graph.edges.tolist().index(list(edge))  # without c, e would be the answer
        width = rectilink.metrics._COLUMN_BLOCK // 32  # the first block's
        for combine in (np.bitwise_or, np.bitwise_and):
            decision, blocks, columns, rows = radius_log(caplog, graph, packed(far), combine)
            assert decision == reference.radius_edge_scan(graph, far, combine), combine
            if not block:
                assert (blocks, columns) == (2, graph.chi) and 0 < rows - graph.chi <= 4 * width, combine

    def test_growing_blocks_logged(self, grid60, caplog, monkeypatch):
        """Under a 60-column block the blocks grow 1, 4, 16, 60 and no block is wider; at info level nothing is logged.

        The block count with every column taken pins the widths: any block
        wider than 60 would leave fewer blocks.
        """
        monkeypatch.setattr(rectilink.metrics, "_COLUMN_BLOCK", 60)
        prep = grid60[0]
        far = prep.levels.far(prep.levels.extreme("radius")[0] + 1)
        with caplog.at_level(logging.INFO, logger="rectilink"):
            radius_edge_scan(prep.graph, far)
        assert not caplog.records
        edge, blocks, taken, rows = radius_log(caplog, prep.graph, far)
        assert edge == reference.radius_edge_scan(prep.graph, unpacked(far)) is not None
        assert taken == prep.graph.chi  # an open edge is left: every column is taken
        assert rows >= prep.graph.chi + blocks - 1  # the first block scans every row, each later one at least one
        assert blocks == 3 + -(-(prep.graph.chi - 21) // 60)  # 1 + 4 + 16 columns, then blocks of 60

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 300])
    def test_far_degrees(self, m):
        """The degrees the columns are ordered by are the rows' set bits, full and empty words and counts past 255
        included."""
        rng = np.random.default_rng(m)
        for density in (0, 0.3, 0.9, 1):
            far = rng.random((m, m)) < density
            assert _popcount(packed(far)).tolist() == far.sum(axis=1).tolist(), density

    def test_early_stop(self, grid60, caplog):
        """At ``orrad`` on grid-60 seed 1 every edge is covered before the last column is taken."""
        prep = grid60[0]
        edge, _, taken, _ = radius_log(caplog, prep.graph, prep.levels.far(prep.levels.extreme("radius")[0]))
        assert edge is None and taken < prep.graph.chi


class TestFallback:
    def test_square(self, square):
        levels = square.prep.levels
        assert small_case_fallback(levels, "diameter").value == 2
        assert small_case_fallback(levels, "radius").value == 2

    def test_lshape_radius(self, lshape):
        res = small_case_fallback(lshape.prep.levels, "radius")
        assert res.value == 2
        assert res.center == (4, 4)  # (2,2): the corner face reaches everything in 2

    def test_lshape_diameter_out_of_range_call(self, lshape):
        # the diameter's closed form holds below ordiam 4 only: LSHAPE's ordiam is 4, so the router sends it to an engine
        assert lshape.prep.levels.extreme("diameter")[0] == 4
        res = compute("diameter", lshape.prep.levels, "edge-scan")
        assert res.engine == "edge-scan" and res.value == 2

    def test_unknown_target(self, square, monkeypatch):
        """The fallback checks no kind: on an instance it would be routed to, the router refuses one before it runs."""
        monkeypatch.setattr(rectilink.metrics, "small_case_fallback", lambda *args: pytest.fail("fallback ran"))
        with pytest.raises(ValueError):
            compute("girth", square.prep.levels)

    @pytest.fixture(scope="class")
    def cases(self, fixtures, corpus):
        """Prepared instances, their distance tables and the chi x chi version's results by (index, kind): the
        diameter where the router calls it.

        Full small generated grids, whose ``ordiam`` is below 4, and the same grids less one cell are added.
        """
        shapes = [(comb, range(1, 41)), (staircase, (1, 2, 3, 7, 20)), (perforated, (1, 2, 4, 9))]
        preps = [inst.prep for inst in fixtures + corpus]
        preps += [prepare(parse_domain(shape(k))) for shape, sizes in shapes for k in sizes]
        for width, height, less in itertools.product(range(1, 6), range(1, 6), (0, 1)):
            try:
                domain = gen_domain(GenParams(width=width, height=height, cells=width * height - less, holes=0, seed=width))
            except ValueError:
                continue
            preps.append(prepare(domain))
        tables = [levels_table(prep.levels) for prep in preps]
        expected = {
            (k, which): reference.small_case_fallback(prep.graph, tables[k], which)
            for k, prep in enumerate(preps)
            for which in ("diameter", "radius")
            if which == "radius" or prep.levels.extreme("diameter")[0] < 4
        }
        return preps, tables, expected

    def test_face_table_is_two_below_ordiam_4(self, cases):
        """Below ``ordiam`` 4 every pair of faces is at 2, so the diameter's closed form is the enumeration's value."""
        preps, tables, _ = cases
        routed = [(prep, dm) for prep, dm in zip(preps, tables) if prep.levels.extreme("diameter")[0] < 4]
        assert len(routed) >= 10
        for prep, dm in routed:
            values, _ = reference.face_table(prep.graph, dm)
            assert (values == 2).all()

    def test_matches_reference(self, cases):
        """The scan on far bits gives the chi x chi version's results: value, centre and witness face."""
        preps, _, expected = cases
        for (k, which), result in expected.items():
            assert small_case_fallback(preps[k].levels, which) == result, (k, which)
        assert {len(r.witness_rects) for (_, which), r in expected.items() if which == "diameter"} == {2}

    def test_memory(self):
        """comb(60) has chi = 3659: all face pairs at once took 230 MiB; the scan, far(3) included, stays far below."""
        prep = prepare(parse_domain(comb(60)))
        assert prep.graph.chi == 3659 and prep.levels.extreme("radius")[0] < 4
        for which in ("diameter", "radius"):
            tracemalloc.start()
            try:
                small_case_fallback(prep.levels, which)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (which, peak)

    def test_comb_300(self):
        """comb(300) has chi = 90299, 80 times comb(100)'s face pairs; the oracle prices the centre at the radius."""
        domain = parse_domain(comb(300))
        prep = prepare(domain)
        assert prep.graph.chi == 90299
        res = compute("radius", prep.levels, "edge-scan")
        assert res.engine == "fallback" and res.value == 2
        assert oracle_eccentricity(build_grid(domain), res.center) == 2

    def test_routed_radius_thresholds(self, cases):
        """A routed radius reads far(3), where a face is left uncovered on every case, and no threshold but orrad
        and the radius test's ``R``, the least eccentricity of a horizontal rectangle."""
        preps, _, _ = cases
        routed = [prep for prep in preps if prep.levels.extreme("radius")[0] < 4]
        assert len(routed) >= 10
        for prep in routed:
            levels = all_pairs(prep.graph)  # a fresh far cache
            compute("radius", levels, "edge-scan")
            least = int(levels_table(prep.levels)[: prep.graph.nh].max(axis=1).min())
            assert 3 in levels._far and set(levels._far) <= {3, prep.levels.extreme("radius")[0], least}

    def test_routing(self, square, lshape, donut):
        res = compute("diameter", square.prep.levels, "fast")
        assert res.engine == "fallback" and res.value == 2
        res = compute("radius", lshape.prep.levels, "matmul")
        assert res.engine == "fallback" and res.value == 2
        res = compute("diameter", donut.prep.levels, "fast")
        assert res.engine == "fast"

    def test_routing_logged(self, square, donut, caplog):
        """The route, its reason and the far-entry count, at debug level only."""
        with caplog.at_level(logging.INFO, logger="rectilink"):
            compute("radius", donut.prep.levels, "matmul")
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="rectilink"):
            compute("diameter", square.prep.levels, "fast")
            compute("radius", donut.prep.levels, "matmul")
        square_ordiam, _ = square.prep.levels.extreme("diameter")
        square_far = np.count_nonzero(levels_table(square.prep.levels) >= square_ordiam)
        donut_far = np.count_nonzero(levels_table(donut.prep.levels) >= 4)
        assert [r.getMessage() for r in caplog.records] == [
            f"diameter: fallback, ordiam={square_ordiam} < 4, {square_far} far entries",
            f"radius: matmul, orrad=4, {donut_far} far entries",
        ]
        assert donut.prep.levels.extreme("radius")[0] == 4 and donut_far > 0

    def test_fast_logged(self, corpus, caplog, monkeypatch):
        """``diameter_fast`` logs its store entries per axis, its rounds (restores) and its pops, at debug level only."""

        class Counting(CrossingStore):
            pops = restores = 0

            def pop_crossing(self, fixed, lo, hi):
                out = super().pop_crossing(fixed, lo, hi)
                Counting.pops += len(out)
                return out

            def restore(self):
                Counting.restores += 1
                super().restore()

        monkeypatch.setattr(rectilink.metrics, "CrossingStore", Counting)
        cases = [inst.prep for inst in corpus if inst.prep.levels.extreme("diameter")[0] >= 4][:30]
        for prep in cases[:3]:
            with caplog.at_level(logging.INFO, logger="rectilink"):
                diameter_fast(prep.graph, prep.levels.far(prep.levels.extreme("diameter")[0]))
        assert not caplog.records
        decisions = set()
        for prep in cases:
            g = prep.graph
            entries = [CrossingStore.reset(mids, 0).entries for mids in (g.mids[: g.nh], g.mids[g.nh :])]
            Counting.pops = Counting.restores = 0
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="rectilink"):
                decisions.add(diameter_fast(g, prep.levels.far(prep.levels.extreme("diameter")[0])) is None)
            assert [r.getMessage() for r in caplog.records] == [
                f"diameter fast: {entries[0]}/{entries[1]} store entries (H/V), "
                f"{Counting.restores} rounds, {Counting.pops} pops"
            ]
            assert Counting.pops > 0
        assert decisions == {True, False}

    def test_unknown_algo(self, square):
        with pytest.raises(ValueError):
            compute("diameter", square.prep.levels, "quantum")


def matmul_products(graph, far):
    """``mid`` on the far rows and columns, and ``prod`` on every crossing edge, read off the packed engine state."""
    far_bits = packed(far)
    mid_t, slot, ids = _far_products(graph, far_bits)
    rows = np.flatnonzero(far.any(axis=1))
    mid = np.zeros((graph.m, graph.m), dtype=bool)
    for r in rows:
        mid[rows, r] = np.unpackbits(mid_t[slot[r]].view(np.uint8), bitorder="little")[rows]
    prod = np.zeros(graph.chi, dtype=bool)
    for start, hits in _edge_products(graph, far_bits, mid_t, slot, ids):
        prod[ids[start : start + len(hits)]] = hits
    return mid, prod


class TestMatmulPathEquivalence:
    def test_donut_product_entry(self, donut):
        # crossing row of the left vertical slab reaches the right band through
        # the left band: I[v1, h3] and D[h3, h4] force M[v1, h4]
        g, dm = donut.prep.graph, levels_table(donut.prep.levels)
        v1 = rect_by_box(g, (0, 12, 0, 28))
        h3 = rect_by_box(g, (0, 12, 12, 16))
        h4 = rect_by_box(g, (16, 28, 12, 16))
        assert h3 in g.neighbours(v1).tolist() and dm[h3, h4] == 5
        mid_t, slot, _ = _far_products(g, packed(dm == 5))
        assert np.unpackbits(mid_t[slot[h4]].view(np.uint8), bitorder="little")[v1]  # column h4 of mid, row v1

    def test_product_matches_quadruple_enumeration(self, small_corpus):
        """``mid = cross·far`` on the far rows and columns, and ``prod = far·mid`` on every crossing edge, by brute force."""
        checked = 0
        for inst in small_corpus:
            g, dm = inst.prep.graph, levels_table(inst.prep.levels)
            (ordiam, _), (orrad, _) = (inst.prep.levels.extreme(kind) for kind in ("diameter", "radius"))
            if g.m > 30 or ordiam < 4:
                continue
            checked += 1
            edge_list = g.edges.tolist()
            both_ways = edge_list + [[b, a] for a, b in edge_list]
            for t in (orrad, ordiam):
                far = dm >= t
                mid, prod = matmul_products(g, far)
                rows = far.any(axis=1)
                for j in range(g.m):
                    for r in range(g.m):
                        expect = rows[j] and any(far[k, r] for k in g.neighbours(j))
                        assert mid[j, r] == expect, (inst.name, t, j, r)
                for (i, ip), got in zip(edge_list, prod):
                    assert got == any(far[i, j] and far[ip, jp] for j, jp in both_ways), (inst.name, t, i, ip)
            if checked >= 6:
                break
        assert checked >= 3


@pytest.fixture
def one_reference_product(monkeypatch):
    """The reference engines share one ``_far_products`` per far relation: the second engine's call is a lookup."""
    products, last = reference._far_products, {}

    def shared(graph, far):
        key = (id(graph), far.tobytes())
        if key not in last:
            last.clear()
            last[key] = products(graph, far)
        return last[key]

    monkeypatch.setattr(reference, "_far_products", shared)


def ladder_graph(m, seed):
    """A connected crossing graph of ``ceil(m / 2)`` horizontal strips over ``m // 2`` columns.

    Strip i spans columns i - 1 and i and column j rows j and j + 1, a chain
    through all of them, each randomly widened by up to three more.
    """
    nh, nv = -(-m // 2), m // 2
    rng = np.random.default_rng(seed)
    h, v = Orientation.HORIZONTAL, Orientation.VERTICAL
    strips, columns = [], []
    for i in range(nh):
        c, d = max(0, i - 1 - rng.integers(0, 4)), min(nv - 1, i + rng.integers(0, 4))
        strips.append((4 * c, 4 * d + 2, 4 * i, 4 * i + 2))
    for j in range(nv):
        r, s = max(0, j - rng.integers(0, 4)), min(nh - 1, j + 1 + rng.integers(0, 4))
        columns.append((4 * j, 4 * j + 2, 4 * r, 4 * s + 2))
    return build_graph(Decomposition(h, np.array(strips, dtype=np.int64)), Decomposition(v, np.array(columns, dtype=np.int64)))


class TestMatmulMatchesReference:
    """Both word-row engines return the Python-integer engines' exact tuple on every far relation tried."""

    @pytest.mark.parametrize("collection", ["fixtures", "corpus", "grid40", "grid60"])
    def test_every_threshold(self, collection, request, one_reference_product):
        preps = [getattr(inst, "prep", inst) for inst in request.getfixturevalue(collection)]
        for k, prep in enumerate(preps):
            for t in range(2, prep.levels.extreme("diameter")[0] + 1):
                far = prep.levels.far(t)
                assert diameter_matmul(prep.graph, far) == reference.diameter_matmul(prep.graph, unpacked(far)), (k, t)
                assert radius_matmul(prep.graph, far) == reference.radius_matmul(prep.graph, unpacked(far)), (k, t)

    @pytest.mark.parametrize("m", [63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, m, one_reference_product):
        """Seeded random symmetric far relations, 1-50% dense or one pair, on graphs whose size straddles a word."""
        decisions = {"diameter": set(), "radius": set()}
        partial = 0
        for seed in range(3):
            graph = ladder_graph(m, seed)
            assert graph.m == m and np.diff(graph.indptr).all()  # every rectangle has a neighbour, as the engines require
            rng = np.random.default_rng(seed)
            for density in (0, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5):
                upper = np.triu(rng.random((m, m)) < density, 1)
                upper[0, m - 1] = True  # one pair no edge joins, so density 0 leaves the rest empty
                far = upper | upper.T
                partial += not far.any(axis=1).all()
                quad, edge = diameter_matmul(graph, packed(far)), radius_matmul(graph, packed(far))
                assert quad == reference.diameter_matmul(graph, far), (seed, density)
                assert edge == reference.radius_matmul(graph, far), (seed, density)
                decisions["diameter"].add(quad is None)
                decisions["radius"].add(edge is None)
        assert partial  # some relations leave rows without a far entry
        assert decisions == {"diameter": {True, False}, "radius": {True, False}}


def edge_scan(inst, kind):
    return compute(kind, inst.prep.levels, "edge-scan")


class TestWitnesses:
    def test_donut_diameter_pair_oracle_valid(self, donut):
        res = edge_scan(donut, "diameter")
        assert oracle_distance(donut.grid, *res.pair) == res.value

    def test_donut_radius_center_oracle_valid(self, donut):
        res = edge_scan(donut, "radius")
        assert oracle_eccentricity(donut.grid, res.center) == res.value

    def test_square_center(self, square):
        res = small_case_fallback(square.prep.levels, "radius")
        assert oracle_eccentricity(square.grid, res.center) == 2

    def test_far_pair_witness_distance(self, donut):
        res = edge_scan(donut, "diameter")
        i, j = res.witness_rects
        assert levels_table(donut.prep.levels)[i, j] == donut.prep.levels.extreme("diameter")[0]


class TestEngineAgreement:
    def test_diameter_engines_agree(self, corpus):
        for inst in corpus[:50]:
            values = {
                compute("diameter", inst.prep.levels, algo).value
                for algo in ("edge-scan", "matmul", "fast")
            }
            assert len(values) == 1, inst.name

    def test_radius_engines_agree(self, corpus):
        for inst in corpus[:50]:
            values = {
                compute("radius", inst.prep.levels, algo).value
                for algo in ("edge-scan", "matmul")
            }
            assert len(values) == 1, inst.name

    def test_fast_engine_with_reference_store(self, corpus, monkeypatch):
        """The engine returns the same tuple on the store that scans every live segment."""
        routed = [inst for inst in corpus if inst.prep.levels.extreme("diameter")[0] < 4]
        cases = [(inst.prep.graph, far_of(inst, "diameter")) for inst in corpus if inst not in routed]
        decisions = [diameter_fast(graph, far) for graph, far in cases]
        monkeypatch.setattr(rectilink.metrics, "CrossingStore", ScanCrossingStore)
        for (graph, far), a in zip(cases, decisions):
            assert diameter_fast(graph, far) == a
        assert {a is None for a in decisions} == {True, False}

    def test_faces_partition_area(self, small_corpus):
        for inst in small_corpus[:15]:
            faces, boxes = overlay_faces(inst.prep.graph), inst.prep.hdec.boxes
            face_area = ((faces[:, 1] - faces[:, 0]) * (faces[:, 3] - faces[:, 2])).sum()
            assert face_area == ((boxes[:, 1] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 2])).sum()

    def test_fast_matches_reference(self, fixtures, corpus, grid40, grid60):
        """The engine on the array store returns the tuple of the engine on segment objects and ``SortedList``s.

        At ``ordiam`` every far entry of a row has one parity, so one orientation, as the engine requires.
        """
        shapes = [(comb, (2, 3, 8, 21)), (staircase, (2, 3, 7, 20)), (spiral, (4, 9, 30)), (perforated, (4, 9, 25))]
        preps = [inst.prep for inst in fixtures + corpus] + grid40 + grid60
        preps += [prepare(parse_domain(shape(k))) for shape, sizes in shapes for k in sizes]
        decisions = set()
        for k, prep in enumerate(p for p in preps if p.levels.extreme("diameter")[0] >= 4):
            far = prep.levels.far(prep.levels.extreme("diameter")[0])
            decision = diameter_fast(prep.graph, far)
            assert decision == reference.diameter_fast(prep.graph, unpacked(far), graph_rects(prep.hdec, prep.vdec)), k
            decisions.add(decision is None)
        assert decisions == {True, False}


class TestOverlayFaces:
    """The face-box array against the intersection boxes of the rectangle objects, one edge at a time."""

    def test_faces_equal_intersection_boxes(self, fixtures, corpus):
        preps = [(inst.prep.hdec, inst.prep.vdec, inst.prep.graph) for inst in fixtures + corpus]
        preps += [decompose(parse_domain(comb(k))) for k in (1, 2, 3, 8, 21, 50)]
        preps += [decompose(parse_domain(staircase(k))) for k in (1, 2, 3, 7, 20)]
        for hdec, vdec, g in preps:
            faces = overlay_faces(g)
            assert faces.shape == (g.chi, 4) and faces.dtype == np.int64 and faces.flags.c_contiguous
            assert list(map(tuple, faces.tolist())) == reference.overlay_faces(hdec.rects + vdec.rects, g.edges)
