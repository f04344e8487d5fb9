"""Report-and-remove store vs the scan reference and vs the crossing graph."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectilink import parse_domain
from rectilink.crossing import CrossingStore
from rectilink.geometry import Orientation
from rectilink.pipeline import decompose

from conftest import comb, perforated, spiral, staircase
from reference import ScanCrossingStore, graph_rects, middle_segment

H, V = Orientation.HORIZONTAL, Orientation.VERTICAL
STORES = (CrossingStore, ScanCrossingStore)


def middles(inst, orientation):
    """One orientation's rows of ``graph.mids`` and the id of the first; they equal the reference middle segments."""
    g = inst.prep.graph
    ids = range(g.nh) if orientation is H else range(g.nh, g.m)
    rects = graph_rects(inst.prep.hdec, inst.prep.vdec)
    segments = [middle_segment(rects[i]) for i in ids]
    assert g.mids[ids.start : ids.stop].tolist() == [[s.fixed, s.lo, s.hi] for s in segments]
    return g.mids[ids.start : ids.stop], ids.start


def vertical_middles(inst):
    return middles(inst, V)


def horizontal_middles(inst):
    return middles(inst, H)


def horizontal_middle_by_box(inst, box):
    g = inst.prep.graph
    return g.mids[g.boxes[: g.nh].tolist().index(list(box))].tolist()


def drain(store, mids):
    """Every owner the round has not popped yet, sorted: one pop at each stored segment's ``lo``, spanning every ``fixed``."""
    mids = np.asarray(mids).reshape(-1, 3).tolist()
    if not mids:
        return []
    low, high = min(m[0] for m in mids), max(m[0] for m in mids)
    owners = [owner for _, lo, _ in mids for owner in store.pop_crossing(lo, low, high)]
    assert len(owners) == len(set(owners))
    return sorted(owners)


class TestBasics:
    def test_reset_single(self, donut):
        mids, first = vertical_middles(donut)
        store = CrossingStore.reset(mids[:1], first)
        assert drain(store, mids[:1]) == [first]

    def test_reset_all_donut(self, donut):
        mids, first = vertical_middles(donut)
        store = CrossingStore.reset(mids, first)
        assert drain(store, mids) == list(range(first, first + 4))

    def test_degenerate_interval(self):
        for store_cls in STORES:
            with pytest.raises(ValueError, match="degenerate"):
                store_cls.reset([[0, 1, 4], [3, 5, 5]])


class TestPopCrossing:
    def test_donut_right_band_query(self, donut):
        # middle segment of the right-hand band (y = 14, x in [16, 28]) crosses
        # exactly the right vertical slab's middle segment
        g = donut.prep.graph
        mids, first = vertical_middles(donut)
        store = CrossingStore.reset(mids, first)
        popped = store.pop_crossing(*horizontal_middle_by_box(donut, (16, 28, 12, 16)))
        assert len(popped) == 1
        assert g.mids[popped[0], 0] == 22  # x = 11 in input units
        assert drain(store, mids) == sorted(set(range(first, first + 4)) - set(popped))

    def test_repeat_query_empty(self, donut):
        store = CrossingStore.reset(*vertical_middles(donut))
        h4 = horizontal_middle_by_box(donut, (16, 28, 12, 16))
        store.pop_crossing(*h4)
        assert store.pop_crossing(*h4) == []

    def test_disjoint_query_empty(self, donut):
        store = CrossingStore.reset(*vertical_middles(donut))
        assert store.pop_crossing(-50, -100, -60) == []


class TestReset:
    def test_empty(self):
        store = CrossingStore.reset(np.empty((0, 3), dtype=np.int64))
        assert store.entries == 0
        assert store.pop_crossing(0, -5, 5) == []
        store.restore()
        assert store.pop_crossing(0, -5, 5) == []

    def test_horizontal_middles(self, donut):
        mids, first = horizontal_middles(donut)
        assert drain(CrossingStore.reset(mids, first), mids) == list(range(first, first + 4))

    def test_idempotent(self, donut):
        mids, first = horizontal_middles(donut)
        a, b = CrossingStore.reset(mids, first), CrossingStore.reset(mids, first)
        assert a.entries == b.entries >= 4
        query = vertical_middles(donut)[0][0].tolist()
        assert a.pop_crossing(*query) == b.pop_crossing(*query) != []
        assert drain(a, mids) == drain(b, mids) != []


def random_segment(rng, span=40):
    lo = rng.randrange(-span, span - 1)
    hi = rng.randrange(lo + 1, span)
    return [rng.randrange(-span, span), lo, hi]


def random_stores(rng, count):
    segs = [random_segment(rng) for _ in range(count)]
    first = rng.randrange(0, 50)
    return segs, first, CrossingStore.reset(np.array(segs).reshape(-1, 3), first), ScanCrossingStore.reset(segs, first)


def run_sequence(rng, op_count):
    """Drive both stores with one random reset-then-pop program; compare every answer."""
    _, _, real, ref = random_stores(rng, rng.randrange(0, op_count))
    for _ in range(op_count):
        query = random_segment(rng)
        assert real.pop_crossing(*query) == ref.pop_crossing(*query)


def run_restore_program(rng):
    """Rounds of pops, each ended by a restore.

    Every answer is compared with the scan reference driven the same way, and
    with a store freshly reset at the start of the round.
    """
    segs, first, real, ref = random_stores(rng, rng.randrange(1, 25))
    for _ in range(rng.randrange(1, 8)):
        fresh = CrossingStore.reset(segs, first)
        for _ in range(rng.randrange(1, 6)):
            query = random_segment(rng)
            got = real.pop_crossing(*query)
            assert got == ref.pop_crossing(*query)
            assert got == fresh.pop_crossing(*query)
        if rng.random() < 0.3:  # end the round on a drain: every segment not popped yet
            assert drain(real, segs) == drain(ref, segs) == drain(fresh, segs)
        real.restore()
        ref.restore()


class TestAgainstReference:
    def test_many_random_sequences(self):
        rng = random.Random(2024)
        for _ in range(400):
            run_sequence(rng, rng.randrange(2, 20))

    def test_restore_programs(self):
        rng = random.Random(11)
        for _ in range(300):
            run_restore_program(rng)

    def test_bulk_reset_then_pop(self):
        rng = random.Random(5)
        for _ in range(100):
            _, _, real, ref = random_stores(rng, rng.randrange(1, 30))
            for _ in range(10):
                q = random_segment(rng)
                assert real.pop_crossing(*q) == ref.pop_crossing(*q)

    def test_conservation(self):
        # every stored segment is reported by at most one pop
        rng = random.Random(77)
        for _ in range(50):
            segs, first, store, _ = random_stores(rng, 25)
            seen = set()
            for _ in range(40):
                for owner in store.pop_crossing(*random_segment(rng)):
                    assert owner not in seen and first <= owner < first + 25
                    seen.add(owner)
            assert drain(store, segs) == sorted(set(range(first, first + 25)) - seen)


segment_values = st.integers(min_value=-30, max_value=30)


@st.composite
def segments(draw):
    lo = draw(segment_values)
    hi = draw(st.integers(min_value=lo + 1, max_value=31))
    return [draw(segment_values), lo, hi]


@given(
    stored=st.lists(segments(), min_size=0, max_size=20),
    queries=st.lists(segments(), min_size=1, max_size=10),
    restores=st.lists(st.booleans(), min_size=10, max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_hypothesis_matches_reference(stored, queries, restores):
    """Random pops; each boolean says whether a round ends after its query."""
    real = CrossingStore.reset(np.array(stored, dtype=np.int64).reshape(-1, 3), 7)
    ref = ScanCrossingStore.reset(stored, 7)
    for query, end in zip(queries, restores):
        assert real.pop_crossing(*query) == ref.pop_crossing(*query)
        if end:
            real.restore()
            ref.restore()


def oracle_graphs(fixtures, corpus, grid40):
    graphs = [inst.prep.graph for inst in fixtures + corpus] + [prep.graph for prep in grid40]
    for shape, sizes in ((comb, (1, 2, 5, 40)), (staircase, (1, 3, 20)), (spiral, (4, 9, 30)), (perforated, (1, 4, 25))):
        graphs += [decompose(parse_domain(shape(k)))[2] for k in sizes]
    return graphs


class TestAgainstGraph:
    """Two middle segments cross exactly when their rectangles share a graph edge, so a pop is a set of neighbours."""

    def test_pops_are_neighbours(self, fixtures, corpus, grid40):
        """Each pop is the query's neighbours less the round's earlier pops; after a restore the store answers as if reset."""
        rng = random.Random(16)
        for g in oracle_graphs(fixtures, corpus, grid40):
            nh, mids = g.nh, g.mids.tolist()
            stores = (CrossingStore.reset(g.mids[:nh], 0), CrossingStore.reset(g.mids[nh:], nh))
            for _ in range(6):
                side = rng.randrange(2)  # the queries' side; the store holds the other
                store, queries = stores[1 - side], (range(nh), range(nh, g.m))[side]
                owners = (range(nh), range(nh, g.m))[1 - side]
                stored = g.mids[owners.start : owners.stop]
                fresh = CrossingStore.reset(stored, owners.start)
                popped = []
                picks = queries if rng.random() < 0.3 else rng.sample(queries, min(len(queries), rng.randrange(1, 12)))
                for j in picks:
                    expect = sorted(set(g.neighbours(j).tolist()) - set(popped), key=lambda k: (mids[k][0], k))
                    got = store.pop_crossing(*mids[j])
                    assert got == expect
                    assert fresh.pop_crossing(*mids[j]) == got
                    popped += got
                if rng.random() < 0.3:  # the rest of the round: every owner not popped yet
                    assert drain(store, stored) == sorted(set(owners) - set(popped))
                store.restore()
