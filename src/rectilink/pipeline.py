"""One path from a domain to every answer.

:func:`decompose` runs the pipeline up to the crossing graph, which is all a
point query searches.  :func:`prepare` runs it and goes on to the oriented
distances, as the level search's bit planes, once per domain: only up to
the radius for a caller that reads the radius alone, and only from the
sources that can reach the diameter for one that reads the diameter alone.
:func:`solve` is the one way to a diameter or radius: an engine through the
router (from the prepared planes, which compute ``ordiam`` or ``orrad`` when
the router first asks) or the cut-grid oracle (from the grid).  Every
command reaches the engines through it; :func:`run_verify` runs each engine
and the oracle and checks every witness against the oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import OutsidePointError, RectilinkError, UnknownChoiceError
from .geometry import (
    Decomposition,
    Domain,
    horizontal_decomposition,
    point_out,
    require_valid,
    vertical_decomposition,
)
from .graph import Levels, OrientedGraph, all_pairs, build_graph
from .metrics import ALGOS, FALLBACK, DiameterResult, ORACLE, RadiusResult, compute
from .oracle import GridModel, build_grid, oracle_diameter, oracle_distance, oracle_eccentricity, oracle_radius


@dataclass(frozen=True)
class Prepared:
    domain: Domain
    hdec: Decomposition
    vdec: Decomposition
    graph: OrientedGraph
    levels: Levels
    seconds: dict[str, float]  # per stage of prepare


def decompose(
    domain: Domain, seconds: dict[str, float] | None = None
) -> tuple[Decomposition, Decomposition, OrientedGraph]:
    """Both slab decompositions and the crossing graph of a valid domain: everything a point query needs.

    Raises :class:`~rectilink.InvalidDomainError` for an invalid domain;
    each domain is checked once (:attr:`~rectilink.geometry.Domain.violations`).
    Given ``seconds``, it records there the seconds of the check and both
    sweeps, as ``"decompose"``, and of the graph, as ``"graph"``.
    """
    t0 = time.perf_counter()
    require_valid(domain)
    hdec, vdec = horizontal_decomposition(domain), vertical_decomposition(domain)
    t1 = time.perf_counter()
    graph = build_graph(hdec, vdec)
    if seconds is not None:
        seconds.update(decompose=t1 - t0, graph=time.perf_counter() - t1)
    return hdec, vdec, graph


def prepare(domain: Domain, kind: str | None = None) -> Prepared:
    """:func:`decompose`, then the all-pairs distances (as bit planes) of a valid domain, each stage timed.

    ``kind`` is the one extreme the caller will read
    (:func:`~rectilink.graph.all_pairs`): with ``"radius"`` the search stops
    at the radius and the levels give the radius only; with ``"diameter"``,
    on a graph of many horizontals, it searches in rounds only the sources
    that can reach the diameter, and the levels then give the diameter only;
    otherwise every level of every source is searched.  Raises :class:`~rectilink.InvalidDomainError` for an
    invalid domain.  The ``decompose`` stage includes the check, which runs
    once per domain (:attr:`~rectilink.geometry.Domain.violations`).
    """
    seconds: dict[str, float] = {}
    hdec, vdec, graph = decompose(domain, seconds)
    t0 = time.perf_counter()
    levels = all_pairs(graph, kind)
    seconds["all_pairs"] = time.perf_counter() - t0
    return Prepared(domain, hdec, vdec, graph, levels, seconds)


@dataclass(frozen=True)
class Solution:
    """A diameter or radius and the seconds it took."""

    result: DiameterResult | RadiusResult
    seconds: float

    @property
    def routed(self) -> bool:
        """Whether the router sent the call to the fallback; oracle results carry engine ``oracle``."""
        return self.result.engine == FALLBACK

    def payload(self) -> dict:
        """The value fields: value, engine, routing and the witness in original units."""
        result = self.result
        if isinstance(result, DiameterResult):
            witness = {"pair": [point_out(p) for p in result.pair], "rects": list(result.witness_rects)}
        else:
            label, ids = result.witness
            witness = {"center": point_out(result.center), label: list(ids)}
        return {
            "value": result.value,
            "engine": result.engine,
            "routed_to_fallback": self.routed,
            "witness": witness,
        }


def solve(kind: str, algo: str, prep: Prepared | None = None, grid: GridModel | None = None) -> Solution:
    """The ``kind`` ("diameter" or "radius") by engine ``algo``, or by the oracle.

    Engines run through the router :func:`~rectilink.metrics.compute` on
    ``prep``; ``algo="oracle"`` runs the cut-grid oracle on ``grid`` and,
    without a grid, is an unknown engine.  A call without the input it
    needs, ``prep`` or, for the oracle with no ``prep`` either, ``grid``,
    raises a typed error naming it before any work.
    """
    if kind not in ALGOS:
        raise UnknownChoiceError(f"unknown kind {kind!r} (choose from {', '.join(ALGOS)})")
    if prep is None and not (algo == ORACLE and grid is not None):
        needed = "grid=build_grid(domain)" if algo == ORACLE else "prep=prepare(domain)"
        raise RectilinkError(f"{kind} algorithm {algo!r} needs {needed}")
    t0 = time.perf_counter()
    if algo == ORACLE and grid is not None:
        result = (oracle_diameter if kind == "diameter" else oracle_radius)(grid)
    else:
        result = compute(kind, prep.levels, algo)
    return Solution(result, time.perf_counter() - t0)


def instance_stats(prep: Prepared) -> dict:
    return {
        "n": prep.domain.n,
        "h": prep.domain.h,
        "m": prep.graph.m,
        "chi": prep.graph.chi,
        "ordiam": prep.levels.extreme("diameter")[0],
        "orrad": prep.levels.extreme("radius")[0],
    }


def _witness_ok(grid: GridModel, result: DiameterResult | RadiusResult, priced: dict) -> bool | None:
    """Whether the oracle prices the witness at the result's value; each distinct witness once per ``priced``."""
    diameter = isinstance(result, DiameterResult)
    key = (diameter, result.pair if diameter else result.center, result.value)
    if key not in priced:
        try:
            cost = oracle_distance(grid, *result.pair) if diameter else oracle_eccentricity(grid, result.center)
            priced[key] = cost == result.value
        except OutsidePointError:
            priced[key] = None  # witness on the boundary: the oracle cannot price it
    return priced[key]


def run_verify(domain: Domain) -> dict:
    """Every engine plus the oracle, with witness validation and a verdict."""
    prep = prepare(domain)
    grid = build_grid(domain)

    report = {"instance": instance_stats(prep)}
    checks = set()  # False: values or a witness price disagree; None: a witness the oracle cannot price
    priced = {}  # the engines and the oracle often share a witness
    for kind, algos in ALGOS.items():
        entries = {}
        routed = None  # once one engine routes to the fallback, every engine of the kind would: its one answer
        for algo in algos + (ORACLE,):
            solution = routed if routed and algo != ORACLE else solve(kind, algo, prep, grid)
            routed = solution if solution.routed else None
            entries[algo] = solution.payload() | {
                "seconds": solution.seconds,
                "witness_ok": _witness_ok(grid, solution.result, priced),
            }
        checks.add(len({e["value"] for e in entries.values()}) == 1)
        checks |= {e["witness_ok"] for e in entries.values()}
        report[kind] = entries
    report["verdict"] = "disagree" if False in checks else "unchecked" if None in checks else "ok"
    report["timings"] = {"prepare_seconds": sum(prep.seconds.values())}
    return report
