"""Metamorphic checks: link distance depends only on the order of the coordinates.

Swapping x and y, negating x, translating, and any strictly increasing map
of each axis leave the diameter and the radius unchanged, whatever engine
computes them, and the oriented diameter and radius of the distance table:
a swap exchanges the H and V decompositions, so the table's vertical block
is checked against its mirror image.  The increasing map spreads each axis onto exactly
``[-LIMIT, LIMIT]``, the largest coordinates the parser accepts, so these
checks also cover the edge of the input range on instances too large for
the oracle.
"""

import random

import pytest

import reference
from rectilink import GenParams, InstanceFormatError, domain_to_instance, gen_domain, parse_domain, prepare, solve
from rectilink.geometry import COORD_LIMIT, SCALE
from rectilink.metrics import ALGOS

LIMIT = COORD_LIMIT // SCALE


def transform(instance: dict, fx, fy, swap: bool = False) -> dict:
    """``instance`` with every point (x, y) moved to (fx(x), fy(y)), then swapped when ``swap``."""

    def move(ring):
        return [[fy(y), fx(x)] if swap else [fx(x), fy(y)] for x, y in ring]

    return {"outer": move(instance["outer"]), "holes": [move(hole) for hole in instance["holes"]]}


def spread(rng: random.Random, values) -> dict:
    """A random strictly increasing map of ``values`` onto integers from ``-LIMIT`` to ``LIMIT``, both reached."""
    values = sorted(set(values))
    inner = sorted(rng.sample(range(-LIMIT + 1, LIMIT), len(values) - 2))
    return dict(zip(values, [-LIMIT, *inner, LIMIT]))


def variants(instance: dict, seed: int) -> dict:
    rng = random.Random(seed)
    points = [p for ring in [instance["outer"], *instance["holes"]] for p in ring]
    xmap, ymap = spread(rng, [x for x, _ in points]), spread(rng, [y for _, y in points])
    dx, dy = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
    return {
        "swap": transform(instance, int, int, swap=True),
        "negate x": transform(instance, lambda x: -x, int),
        "translate": transform(instance, lambda x: x + dx, lambda y: y + dy),
        "spread to the limit": transform(instance, xmap.__getitem__, ymap.__getitem__),
    }


def values(instance: dict) -> dict:
    """Every engine's diameter and radius value, and the oriented diameter and radius."""
    prep = prepare(parse_domain(instance))
    out = {(kind, algo): solve(kind, algo, prep).result.value for kind, algos in ALGOS.items() for algo in algos}
    return out | {"ordiam": prep.levels.extreme("diameter")[0], "orrad": prep.levels.extreme("radius")[0]}


def generated(size: int, seed: int) -> dict:
    params = GenParams(width=size, height=size, cells=int(size * size * 0.45), holes=3, seed=seed)
    return domain_to_instance(gen_domain(params))


@pytest.mark.parametrize(
    "size, seed", [(40, 1000), (40, 1001), (120, 1005)], ids=["grid40-1000", "grid40-1001", "grid120-1005"]
)
def test_values_invariant(size, seed):
    instance = generated(size, seed)
    expected = values(instance)
    for name, variant in variants(instance, seed).items():
        assert values(variant) == expected, name


def test_spread_reaches_the_limit():
    """The spread instance touches both ends of both axes; one unit further is refused with the overflow message."""
    instance = variants(generated(40, 1000), 1000)["spread to the limit"]
    vertices = parse_domain(instance).vertices // SCALE
    assert vertices.min(axis=0).tolist() == [-LIMIT, -LIMIT] and vertices.max(axis=0).tolist() == [LIMIT, LIMIT]
    for step in (1, -1):
        beyond = transform(instance, lambda x: x + step if abs(x) == LIMIT else x, int)
        first = next(p for p in beyond["outer"] if abs(p[0]) > LIMIT)
        for parse in (parse_domain, reference.parse_domain):
            with pytest.raises(InstanceFormatError) as caught:
                parse(beyond)
            assert str(caught.value) == f"outer: coordinate overflow at {first!r}"
