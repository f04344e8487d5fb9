"""Shared fixtures: canonical instances and the generated corpus."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from rectilink import (
    Domain,
    GenParams,
    GridModel,
    Prepared,
    build_grid,
    gen_domain,
    parse_domain,
    prepare,
)

SQUARE = {"outer": [[0, 0], [10, 0], [10, 10], [0, 10]], "holes": []}
LSHAPE = {"outer": [[0, 0], [10, 0], [10, 4], [4, 4], [4, 10], [0, 10]], "holes": []}
DONUT = {"outer": [[0, 0], [14, 0], [14, 14], [0, 14]], "holes": [[[6, 6], [8, 6], [8, 8], [6, 8]]]}
# Two rooms with one hole each, joined by a narrow corridor.  All walls are
# staggered so no two unjoined vertices share a coordinate.
DUMBBELL = {
    "outer": [
        [0, 0], [14, 0], [14, 6], [30, 6], [30, 1], [44, 1],
        [44, 13], [31, 13], [31, 8], [15, 8], [15, 14], [0, 14],
    ],
    "holes": [
        [[5, 3], [7, 3], [7, 5], [5, 5]],
        [[36, 9], [38, 9], [38, 11], [36, 11]],
    ],
}

CORPUS_SIZE = 200


@dataclass
class Instance:
    name: str
    domain: Domain
    prep: Prepared
    grid: GridModel


def _instance(name: str, domain: Domain) -> Instance:
    return Instance(name=name, domain=domain, prep=prepare(domain), grid=build_grid(domain))


@pytest.fixture(scope="session")
def square() -> Instance:
    return _instance("SQUARE", parse_domain(SQUARE))


@pytest.fixture(scope="session")
def lshape() -> Instance:
    return _instance("LSHAPE", parse_domain(LSHAPE))


@pytest.fixture(scope="session")
def donut() -> Instance:
    return _instance("DONUT", parse_domain(DONUT))


@pytest.fixture(scope="session")
def fixtures(square, lshape, donut) -> list[Instance]:
    return [square, lshape, donut]


def corpus_params(k: int) -> GenParams:
    """The first parameters tried for corpus member ``k``: grids 3..12, holes up to 3."""
    width = 3 + (7 * k) % 10
    height = 3 + (5 * k + 2) % 10
    fill = 0.45 + 0.12 * (k % 5)
    cells = max(1, min(width * height, int(width * height * fill)))
    return GenParams(width=width, height=height, cells=cells, holes=k % 4, seed=10_000 + k)


def corpus_domain(k: int) -> tuple[str, Domain]:
    """Deterministic corpus member.

    Hole placement can be infeasible on ragged small masks; holes are reduced
    until generation succeeds, keeping the corpus deterministic.
    """
    params = corpus_params(k)
    while True:
        try:
            domain = gen_domain(params)
            return (f"gen-{k}-w{params.width}h{params.height}c{params.cells}x{params.holes}", domain)
        except ValueError:
            if params.holes == 0:
                raise
            params = replace(params, holes=params.holes - 1)


def staircase(k: int) -> dict:
    """A stair-shaped corridor of ``k`` steps: n = 4k + 2 vertices and ordiam = 2k + 2.

    The lower chain climbs at even coordinates, ``(2i, 2i - 2) -> (2i, 2i)``,
    and the upper chain is the lower one moved one unit left and one up, at
    odd coordinates, so two vertices share a coordinate only across an edge.
    Every rectangle crosses at most two others, so the levels of a search
    are many and the edges few: a shape the generator rarely makes.
    """
    lower = [(-1, 0)]
    for i in range(1, k + 1):
        lower += [(2 * i, 2 * i - 2), (2 * i, 2 * i)]
    lower[-1] = (2 * k, 2 * k + 1)
    upper = [(2 * k - 1, 2 * k + 1)]
    for i in range(k - 1, -1, -1):
        upper += [(2 * i + 1, 2 * i + 1), (2 * i - 1, 2 * i + 1)]
    upper[-1] = (-1, 1)
    return {"outer": [list(p) for p in lower + upper], "holes": []}


def comb(k: int) -> dict:
    """A comb of ``k`` teeth on a base: n = 4k vertices, chi of order k squared.

    Tooth i spans x in [4i, 4i + 2] up to its top at 2k + i; the gap right of
    it has its floor at 1 + i.  Tops are distinct and above every floor, and
    floors are distinct, so two vertices share a coordinate only across an
    edge.  A floor's line runs right under every higher floor, so each such
    horizontal slab crosses every vertical strip to its right; every tall
    vertical tooth spans the middle height of every horizontal rectangle, so
    the candidates of each tooth are all of them.
    """
    ring = [(0, 0), (4 * k - 2, 0)]
    for i in range(k - 1, -1, -1):
        ring += [(4 * i + 2, 2 * k + i), (4 * i, 2 * k + i)]
        if i:
            ring += [(4 * i, i), (4 * i - 2, i)]
    return {"outer": [list(p) for p in ring], "holes": []}


def spiral(k: int) -> dict:
    """A corridor 2 wide that spirals inward through ``k`` arms: n = 2k + 2 vertices, no holes.

    The centre line turns left at each arm's end, running east, north, west
    and south in turn; the arms are ``a + 2``, ``a``, ``a``, then pairs of
    ``a - 4``, ``a - 8``, ... for ``a = 4 * (k // 2 + 2) + 1``, so that nested
    arms lie 4 apart, and the walls run 1 to either side.  Vertical centre
    lines sit at x = 0 or 1 mod 4 and horizontal ones at y = 0 or 1 mod 4,
    so each wall has a coordinate of its own: general position.
    """
    a = 4 * (k // 2 + 2) + 1
    steps = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    path = [(-2, 0)]
    for i in range(k):
        dx, dy = steps[i % 4]
        length = a + 2 if i == 0 else a - 4 * ((i - 1) // 2)
        path.append((path[-1][0] + length * dx, path[-1][1] + length * dy))
    left = [(-dy, dx) for dx, dy in (steps[i % 4] for i in range(k))]  # left normal of each arm
    # a wall corner sits at the sum of the two arms' normals; the ends at the one arm's
    corners = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(left, left[1:])]
    offsets = [left[0]] + corners + [left[-1]]
    outer_wall = [(x - ox, y - oy) for (x, y), (ox, oy) in zip(path, offsets)]
    inner_wall = [(x + ox, y + oy) for (x, y), (ox, oy) in zip(path, offsets)]
    return {"outer": [list(p) for p in outer_wall + inner_wall[::-1]], "holes": []}


def perforated(k: int) -> dict:
    """A square with ``k`` holes of one unit each, 1-unit corridors between them: n = 4k + 4.

    Hole i spans x in [2i + 1, 2i + 2] and y in [2r + 1, 2r + 2] for row r of
    a seeded permutation, so no two holes share a coordinate, and each is one
    unit from the next hole (or the wall) in both axes.
    """
    rows = np.random.default_rng(k).permutation(k).tolist()
    holes = [
        [[2 * i + 1, 2 * r + 1], [2 * i + 2, 2 * r + 1], [2 * i + 2, 2 * r + 2], [2 * i + 1, 2 * r + 2]]
        for i, r in enumerate(rows)
    ]
    side = 2 * k + 1
    return {"outer": [[0, 0], [side, 0], [side, side], [0, side]], "holes": holes}


def medium_domain(seed: int) -> Domain:
    """A generated domain of grid 16-22 with up to two holes: deeper than the corpus, still in the oracle's reach."""
    width = 16 + (seed % 3) * 3
    return gen_domain(GenParams(width=width, height=width, cells=int(width * width * 0.55), holes=seed % 3, seed=seed))


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    entries = []
    for k in range(CORPUS_SIZE):
        name, domain = corpus_domain(k)
        entries.append(_instance(name, domain))
    return entries


@pytest.fixture(scope="session")
def small_corpus(corpus) -> list[Instance]:
    """Every corpus member with a combined rectangle count of at most 200."""
    return [inst for inst in corpus if inst.prep.graph.m <= 200]


@pytest.fixture(scope="session")
def grid40() -> list[Prepared]:
    """The grid-40 instances with seeds 1000-1031 that generate (the benchmark's default-engine size)."""
    preps = []
    for seed in range(1000, 1032):
        try:
            domain = gen_domain(GenParams(width=40, height=40, cells=int(40 * 40 * 0.45), holes=3, seed=seed))
        except ValueError:
            continue
        preps.append(prepare(domain))
    return preps


@pytest.fixture(scope="session")
def grid60() -> list[Prepared]:
    """Two grid-60 instances (seeds 1 and 2), too large for the full oracle."""
    return [
        prepare(gen_domain(GenParams(width=60, height=60, cells=int(60 * 60 * 0.45), holes=3, seed=seed)))
        for seed in (1, 2)
    ]
