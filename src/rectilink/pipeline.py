"""One path from a domain to every answer.

:func:`decompose` runs the pipeline up to the crossing graph, which is all a
point query searches.  :func:`prepare` goes on to the oriented-distance table
and its summary (``ordiam``, ``orrad``), once per domain.  :func:`solve` is
the one way to a diameter or radius: an engine through the router (from the
prepared table and summary) or the cut-grid oracle (from the grid).  Every
command reaches the engines through it; :func:`run_verify` runs each engine
and the oracle and checks every witness against the oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import OutsidePointError, UnknownChoiceError
from .geometry import (
    Decomposition,
    Domain,
    Point,
    SCALE,
    horizontal_decomposition,
    require_valid,
    vertical_decomposition,
)
from .graph import DistanceMatrix, GraphSummary, OrientedGraph, all_pairs, build_graph, summarize
from .metrics import ALGOS, DiameterResult, ORACLE, RadiusResult, compute
from .oracle import GridModel, build_grid, oracle_diameter, oracle_distance, oracle_eccentricity, oracle_radius


@dataclass(frozen=True)
class Prepared:
    domain: Domain
    hdec: Decomposition
    vdec: Decomposition
    graph: OrientedGraph
    dm: DistanceMatrix
    summary: GraphSummary
    seconds: dict[str, float]  # per stage of prepare


def _decompositions(domain: Domain, validated: bool) -> tuple[Decomposition, Decomposition]:
    if not validated:
        require_valid(domain)
    return horizontal_decomposition(domain), vertical_decomposition(domain)


def decompose(domain: Domain, validated: bool = False) -> tuple[Decomposition, Decomposition, OrientedGraph]:
    """Both slab decompositions and the crossing graph: everything a point query needs."""
    hdec, vdec = _decompositions(domain, validated)
    return hdec, vdec, build_graph(hdec, vdec)


def prepare(domain: Domain, validated: bool = False) -> Prepared:
    """Decompositions, crossing graph, all-pairs distances and their extremes, each stage timed."""
    seconds = {}

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        seconds[stage] = time.perf_counter() - t0
        return out

    hdec, vdec = timed("decompose", _decompositions, domain, validated)
    graph = timed("graph", build_graph, hdec, vdec)
    dm = timed("all_pairs", all_pairs, graph)
    return Prepared(domain, hdec, vdec, graph, dm, timed("summarize", summarize, dm), seconds)


def point_out(p: Point):
    """Internal (doubled) point to original units, integer when exact."""
    return [c // SCALE if c % SCALE == 0 else c / SCALE for c in p]


@dataclass(frozen=True)
class Solution:
    """A diameter or radius, whether it was routed to the fallback, and the seconds it took."""

    result: DiameterResult | RadiusResult
    routed: bool
    seconds: float

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
    without a grid, is an unknown engine.
    """
    if kind not in ALGOS:
        raise UnknownChoiceError(f"unknown kind {kind!r} (choose from {', '.join(ALGOS)})")
    t0 = time.perf_counter()
    if algo == ORACLE and grid is not None:
        result, routed = (oracle_diameter if kind == "diameter" else oracle_radius)(grid), False
    else:
        result, routed = compute(kind, prep.graph, prep.dm, prep.summary, algo)
    return Solution(result, routed, time.perf_counter() - t0)


def instance_stats(prep: Prepared) -> dict:
    return {
        "n": prep.domain.n,
        "h": prep.domain.h,
        "m": prep.graph.m,
        "chi": prep.graph.chi,
        "ordiam": prep.summary.ordiam,
        "orrad": prep.summary.orrad,
    }


def _witness_ok(grid: GridModel, result: DiameterResult | RadiusResult) -> bool | None:
    try:
        if isinstance(result, DiameterResult):
            return oracle_distance(grid, *result.pair) == result.value
        return oracle_eccentricity(grid, result.center) == result.value
    except OutsidePointError:
        return None  # witness on the boundary: the oracle cannot price it


def run_verify(domain: Domain, prep: Prepared | None = None, grid: GridModel | None = None) -> dict:
    """Every engine plus the oracle, with witness validation and a verdict."""
    t0 = time.perf_counter()
    if prep is None:
        prep = prepare(domain)
    prep_seconds = time.perf_counter() - t0
    if grid is None:
        grid = build_grid(domain)

    report = {"instance": instance_stats(prep)}
    checks = set()  # False: values or a witness price disagree; None: a witness the oracle cannot price
    for kind, algos in ALGOS.items():
        entries = {}
        for algo in algos + (ORACLE,):
            solution = solve(kind, algo, prep, grid)
            entries[algo] = solution.payload() | {
                "seconds": solution.seconds,
                "witness_ok": _witness_ok(grid, solution.result),
            }
        checks.add(len({e["value"] for e in entries.values()}) == 1)
        checks |= {e["witness_ok"] for e in entries.values()}
        report[kind] = entries
    report["verdict"] = "disagree" if False in checks else "unchecked" if None in checks else "ok"
    report["timings"] = {"prepare_seconds": prep_seconds}
    return report
