"""Shared fixtures: canonical instances and the generated corpus."""

from __future__ import annotations

from dataclasses import dataclass

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


def corpus_domain(k: int) -> tuple[str, Domain]:
    """Deterministic corpus member: grids 3..12, holes up to 3.

    Hole placement can be infeasible on ragged small masks; holes are reduced
    until generation succeeds, keeping the corpus deterministic.
    """
    width = 3 + (7 * k) % 10
    height = 3 + (5 * k + 2) % 10
    fill = 0.45 + 0.12 * (k % 5)
    cells = max(1, min(width * height, int(width * height * fill)))
    holes = k % 4
    seed = 10_000 + k
    while True:
        try:
            domain = gen_domain(
                GenParams(width=width, height=height, cells=cells, holes=holes, seed=seed)
            )
            return (f"gen-{k}-w{width}h{height}c{cells}x{holes}", domain)
        except ValueError:
            if holes == 0:
                raise
            holes -= 1


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
