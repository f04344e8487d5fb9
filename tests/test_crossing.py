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


class TestBasics:
    def test_reset_single(self, donut):
        mids, first = vertical_middles(donut)
        store = CrossingStore.reset(mids[:1], first)
        assert len(store) == 1

    def test_reset_all_donut(self, donut):
        store = CrossingStore.reset(*vertical_middles(donut))
        assert len(store) == 4

    def test_degenerate_interval(self):
        for store_cls in STORES:
            with pytest.raises(ValueError, match="degenerate"):
                store_cls.reset([[0, 1, 4], [3, 5, 5]])

    def test_duplicate_owner(self, donut):
        mids, first = vertical_middles(donut)
        for store_cls in STORES:
            store = store_cls.reset(mids, first)
            popped = store.pop_crossing(*horizontal_middle_by_box(donut, (16, 28, 12, 16)))
            assert len(popped) == 1
            with pytest.raises(ValueError, match="duplicate owner"):
                store.restore(popped + popped)

    def test_restore_checks(self, donut):
        mids, first = vertical_middles(donut)
        for store_cls in STORES:
            store = store_cls.reset(mids, first)
            with pytest.raises(ValueError, match="duplicate owner"):
                store.restore([first])
            popped = store.pop_crossing(*horizontal_middle_by_box(donut, (16, 28, 12, 16)))
            store.restore(popped)
            assert len(store) == 4
            with pytest.raises(ValueError, match="duplicate owner"):
                store.restore(popped)

    def test_restore_outside_the_built_coordinates(self, donut):
        mids, first = vertical_middles(donut)
        for store_cls in STORES:
            store = store_cls.reset(mids[1:], first + 1)
            for stranger in (first, first + len(mids)):
                with pytest.raises(ValueError, match="built over"):
                    store.restore([stranger])


class TestPopCrossing:
    def test_donut_right_band_query(self, donut):
        # middle segment of the right-hand band (y = 14, x in [16, 28]) crosses
        # exactly the right vertical slab's middle segment
        g = donut.prep.graph
        store = CrossingStore.reset(*vertical_middles(donut))
        popped = store.pop_crossing(*horizontal_middle_by_box(donut, (16, 28, 12, 16)))
        assert len(popped) == 1
        assert g.mids[popped[0], 0] == 22  # x = 11 in input units
        assert len(store) == 3

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
        assert len(store) == 0 and store.entries == 0
        assert store.pop_crossing(0, -5, 5) == []
        store.restore([])

    def test_horizontal_middles(self, donut):
        assert len(CrossingStore.reset(*horizontal_middles(donut))) == 4

    def test_idempotent(self, donut):
        mids, first = horizontal_middles(donut)
        a, b = CrossingStore.reset(mids, first), CrossingStore.reset(mids, first)
        assert len(a) == len(b) == 4
        query = vertical_middles(donut)[0][0].tolist()
        assert a.pop_crossing(*query) == b.pop_crossing(*query) != []


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
        assert len(real) == len(ref)


def run_restore_program(rng):
    """Rounds of pops, each followed by a restore of all or part of what it popped.

    Every answer is compared with the scan reference driven the same way, and
    whenever every segment is live again, with a freshly reset store.
    """
    segs, first, real, ref = random_stores(rng, rng.randrange(1, 25))
    for _ in range(rng.randrange(1, 8)):
        fresh = CrossingStore.reset(segs, first) if len(real) == len(segs) else None
        popped = []
        for _ in range(rng.randrange(1, 6)):
            query = random_segment(rng)
            got = real.pop_crossing(*query)
            assert got == ref.pop_crossing(*query)
            if fresh is not None:
                assert got == fresh.pop_crossing(*query)
            popped.extend(got)
        back = popped if rng.random() < 0.7 else rng.sample(popped, len(popped) // 2)
        real.restore(back)
        ref.restore(back)
        assert len(real) == len(ref)


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
            _, first, store, _ = random_stores(rng, 25)
            seen = set()
            for _ in range(40):
                for owner in store.pop_crossing(*random_segment(rng)):
                    assert owner not in seen and first <= owner < first + 25
                    seen.add(owner)
            assert len(store) == 25 - len(seen)


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
    real = CrossingStore.reset(np.array(stored, dtype=np.int64).reshape(-1, 3), 7)
    ref = ScanCrossingStore.reset(stored, 7)
    for query, back in zip(queries, restores):
        popped = real.pop_crossing(*query)
        assert popped == ref.pop_crossing(*query)
        if back:
            real.restore(popped)
            ref.restore(popped)


def oracle_graphs(fixtures, corpus, grid40):
    graphs = [inst.prep.graph for inst in fixtures + corpus] + [prep.graph for prep in grid40]
    for shape, sizes in ((comb, (1, 2, 5, 40)), (staircase, (1, 3, 20)), (spiral, (4, 9, 30)), (perforated, (1, 4, 25))):
        graphs += [decompose(parse_domain(shape(k)))[2] for k in sizes]
    return graphs


class TestAgainstGraph:
    """Two middle segments cross exactly when their rectangles share a graph edge, so a pop is a set of neighbours."""

    def test_pops_are_neighbours(self, fixtures, corpus, grid40):
        rng = random.Random(16)
        for g in oracle_graphs(fixtures, corpus, grid40):
            nh, mids = g.nh, g.mids.tolist()
            stores = (CrossingStore.reset(g.mids[:nh], 0), CrossingStore.reset(g.mids[nh:], nh))
            dead = set()  # popped and not restored, per store's owners
            for _ in range(6):
                side = rng.randrange(2)  # the queries' side; the store holds the other
                store, queries = stores[1 - side], (range(nh), range(nh, g.m))[side]
                owners = (range(nh), range(nh, g.m))[1 - side]
                fresh = None
                if not dead & set(owners):
                    fresh = CrossingStore.reset(g.mids[owners.start : owners.stop], owners.start)
                popped = []
                picks = queries if rng.random() < 0.3 else rng.sample(queries, min(len(queries), rng.randrange(1, 12)))
                for j in picks:
                    expect = sorted(set(g.neighbours(j).tolist()) - dead - set(popped), key=lambda k: (mids[k][0], k))
                    got = store.pop_crossing(*mids[j])
                    assert got == expect
                    if fresh is not None:
                        assert fresh.pop_crossing(*mids[j]) == got
                    popped += got
                assert len(store) == len(owners) - len(dead & set(owners)) - len(popped)
                back = popped if rng.random() < 0.6 else rng.sample(popped, len(popped) // 2)
                store.restore(back)
                dead |= set(popped) - set(back)
                if rng.random() < 0.3:  # bring everything back
                    store.restore(sorted(dead & set(owners)))
                    dead -= set(owners)
