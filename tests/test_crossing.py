"""Report-and-remove store vs the quadratic scan reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectilink.crossing import CrossingStore, StoredSegment
from rectilink.geometry import Orientation
from rectilink.graph import middle_segment

from reference import ScanCrossingStore

H, V = Orientation.HORIZONTAL, Orientation.VERTICAL


def vertical_middles(inst):
    g = inst.prep.graph
    return [middle_segment(g.rects[i]) for i in g.ids_of(V)]


def horizontal_middles(inst):
    g = inst.prep.graph
    return [middle_segment(g.rects[i]) for i in g.ids_of(H)]


class TestBasics:
    def test_reset_single(self, donut):
        store = CrossingStore.reset(vertical_middles(donut)[:1], axis=V)
        assert len(store) == 1

    def test_reset_all_donut(self, donut):
        store = CrossingStore.reset(vertical_middles(donut), axis=V)
        assert len(store) == 4

    def test_degenerate_interval(self):
        with pytest.raises(ValueError, match="degenerate"):
            StoredSegment(axis=V, fixed=3, lo=5, hi=5, owner=0)

    def test_duplicate_owner(self, donut):
        seg = vertical_middles(donut)[0]
        for store_cls in (CrossingStore, ScanCrossingStore):
            with pytest.raises(ValueError, match="duplicate owner"):
                store_cls.reset([seg, seg], axis=V)

    def test_axis_mismatch(self, donut):
        for store_cls in (CrossingStore, ScanCrossingStore):
            with pytest.raises(ValueError, match="axis"):
                store_cls.reset(vertical_middles(donut)[:1], axis=H)

    def test_query_axis_must_be_opposite(self, donut):
        store = CrossingStore.reset(vertical_middles(donut), axis=V)
        with pytest.raises(ValueError, match="opposite"):
            store.pop_crossing(vertical_middles(donut)[0])


class TestPopCrossing:
    def test_donut_right_band_query(self, donut):
        # middle segment of the right-hand band (y = 14, x in [16, 28]) crosses
        # exactly the right vertical slab's middle segment
        store = CrossingStore.reset(vertical_middles(donut), axis=V)
        g = donut.prep.graph
        h4 = next(r for r in g.rects if r.box() == (16, 28, 12, 16))
        popped = store.pop_crossing(middle_segment(h4))
        assert len(popped) == 1
        assert popped[0].fixed == 22  # x = 11 in input units
        assert len(store) == 3

    def test_repeat_query_empty(self, donut):
        store = CrossingStore.reset(vertical_middles(donut), axis=V)
        g = donut.prep.graph
        h4 = next(r for r in g.rects if r.box() == (16, 28, 12, 16))
        store.pop_crossing(middle_segment(h4))
        assert store.pop_crossing(middle_segment(h4)) == []

    def test_disjoint_query_empty(self, donut):
        store = CrossingStore.reset(vertical_middles(donut), axis=V)
        assert store.pop_crossing(StoredSegment(H, fixed=-50, lo=-100, hi=-60, owner=99)) == []


class TestReset:
    def test_empty(self):
        assert len(CrossingStore.reset([], axis=H)) == 0

    def test_empty_needs_axis(self):
        with pytest.raises(TypeError):
            CrossingStore.reset([])

    def test_horizontal_middles(self, donut):
        assert len(CrossingStore.reset(horizontal_middles(donut), axis=H)) == 4

    def test_idempotent(self, donut):
        segs = horizontal_middles(donut)
        assert len(CrossingStore.reset(segs, axis=H)) == len(CrossingStore.reset(segs, axis=H)) == 4


def random_segment(rng, axis, owner, span=40):
    lo = rng.randrange(-span, span - 1)
    hi = rng.randrange(lo + 1, span)
    return StoredSegment(axis=axis, fixed=rng.randrange(-span, span), lo=lo, hi=hi, owner=owner)


def run_sequence(rng, store_axis, op_count):
    """Drive both stores with one random reset-then-pop program; compare every answer."""
    segs = [random_segment(rng, store_axis, owner) for owner in range(rng.randrange(0, op_count))]
    real = CrossingStore.reset(segs, axis=store_axis)
    ref = ScanCrossingStore.reset(segs, axis=store_axis)
    for k in range(op_count - len(segs)):
        query = random_segment(rng, store_axis.opposite, 10_000 + k)
        assert real.pop_crossing(query) == ref.pop_crossing(query)
        assert len(real) == len(ref)


class TestAgainstReference:
    def test_many_random_sequences(self):
        rng = random.Random(2024)
        for _ in range(400):
            run_sequence(rng, H if rng.random() < 0.5 else V, rng.randrange(2, 20))

    def test_bulk_reset_then_pop(self):
        rng = random.Random(5)
        for _ in range(100):
            segs = [random_segment(rng, H, k) for k in range(rng.randrange(1, 30))]
            real = CrossingStore.reset(segs, axis=H)
            ref = ScanCrossingStore.reset(segs, axis=H)
            for _ in range(10):
                q = random_segment(rng, V, 10_000)
                assert real.pop_crossing(q) == ref.pop_crossing(q)

    def test_conservation(self):
        # every stored segment is reported by at most one pop
        rng = random.Random(77)
        for _ in range(50):
            segs = [random_segment(rng, H, k) for k in range(25)]
            store = CrossingStore.reset(segs, axis=H)
            seen = set()
            for _ in range(40):
                for seg in store.pop_crossing(random_segment(rng, V, 10_000)):
                    assert seg.owner not in seen
                    seen.add(seg.owner)


segment_values = st.integers(min_value=-30, max_value=30)


@st.composite
def segments(draw, axis):
    lo = draw(segment_values)
    hi = draw(st.integers(min_value=lo + 1, max_value=31))
    return (draw(segment_values), lo, hi)


@given(
    stored=st.lists(segments(H), min_size=0, max_size=20),
    queries=st.lists(segments(V), min_size=1, max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_hypothesis_matches_reference(stored, queries):
    segs = [
        StoredSegment(H, fixed=fixed, lo=lo, hi=hi, owner=owner) for owner, (fixed, lo, hi) in enumerate(stored)
    ]
    real = CrossingStore.reset(segs, axis=H)
    ref = ScanCrossingStore.reset(segs, axis=H)
    for k, (fixed, lo, hi) in enumerate(queries):
        q = StoredSegment(V, fixed=fixed, lo=lo, hi=hi, owner=1000 + k)
        assert real.pop_crossing(q) == ref.pop_crossing(q)
