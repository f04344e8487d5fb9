"""Stage times on a fixed ladder of generated instances, one JSON object per rung.

Run from the root of a checkout::

    PYTHONPATH=src python tools/stage_ladder.py [--rungs 40,120,200]

Each rung is ``gen_domain(GenParams(w, w, int(0.45 * w * w), holes=3,
seed=s))`` for (w, s) in (40, 1000), (120, 1005), (200, 3).  Every stage is
timed in-process, best of 7 after one warm-up call, in milliseconds:

* ``parse``, ``validate`` (the check itself, which ``require_valid`` runs
  once per domain and then reads from ``Domain.violations``), ``sweeps``
  (both decompositions), ``build_graph``, ``all_pairs`` and
  ``all_pairs_radius`` (the search stopped at the radius, as the ``radius``
  command runs it);
* ``diameter`` and ``radius``: the extreme alone, on fresh ``Levels``, with
  any far relation its test reads;
* ``far_ordiam`` and ``far_orrad``: ``Levels.far`` at each extreme's
  threshold alone, on fresh ``Levels``, so with the eccentricities it reads
  its candidate rows from;
* ``diameter+far`` and ``radius+far``: the extreme and then the far relation
  its engine reads, on fresh ``Levels``: what a command pays between
  ``all_pairs`` and its engine;
* one entry per engine, ``diameter_edge-scan`` and so on, on the far
  relation already built, for a kind whose oriented value routes to no
  fallback.

Beside the times, ``search``, ``level_bound`` and ``skipped_targets`` say
how ``all_pairs`` filled the planes (:class:`rectilink.graph.Levels`): the
search it chose, the level bound it chose by, which ``LEVEL_SEARCH_K`` weighs
against ``chi / m``, and the targets the level search skipped as saturated.
``rows_ordiam`` and ``rows_orrad`` count the far relation's rows at each
threshold: ``far``, those holding an entry, and ``candidates``, those
``Levels.far`` computes because they can hold one (the verticals by whole
64-row word blocks), out of ``m``.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from rectilink import GenParams, domain_to_instance, gen_domain, parse_domain
from rectilink.geometry import horizontal_decomposition, validate, vertical_decomposition
from rectilink.graph import Levels, all_pairs, build_graph
from rectilink.metrics import (
    diameter_edge_scan,
    diameter_fast,
    diameter_matmul,
    radius_edge_scan,
    radius_matmul,
)

LADDER = ((40, 1000), (120, 1005), (200, 3))
REPS = 7
ENGINES = {
    "diameter": {"edge-scan": diameter_edge_scan, "matmul": diameter_matmul, "fast": diameter_fast},
    "radius": {"edge-scan": radius_edge_scan, "matmul": radius_matmul},
}


def best_ms(fn) -> float:
    """The fastest of ``REPS`` calls of ``fn`` after one warm-up call, in milliseconds."""
    fn()
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(1000 * best, 3)


def extreme_and_far(levels: Levels, kind: str, t: int) -> None:
    """What a command computes between ``all_pairs`` and its engine: the extreme, then ``far`` at its threshold."""
    levels.extreme(kind)
    levels.far(t)


def rung_domain(width: int, seed: int):
    """The generated domain of the rung (``width``, ``seed``)."""
    return gen_domain(GenParams(width, width, int(0.45 * width * width), holes=3, seed=seed))


def rung(width: int, seed: int) -> dict:
    domain = rung_domain(width, seed)
    text = json.dumps(domain_to_instance(domain))
    hdec, vdec = horizontal_decomposition(domain), vertical_decomposition(domain)
    graph = build_graph(hdec, vdec)
    levels = all_pairs(graph)

    def fresh() -> Levels:
        """The same planes with no extreme and no far relation cached."""
        return Levels(graph, levels.planes)

    oriented = {kind: levels.extreme(kind)[0] for kind in ENGINES}
    out = {"grid": width, "seed": seed, "m": graph.m, "chi": graph.chi}
    out |= {"search": levels.search, "level_bound": levels.bound, "skipped_targets": levels.skipped}
    out |= {"ordiam": oriented["diameter"], "orrad": oriented["radius"]}
    for name, t in (("ordiam", oriented["diameter"]), ("orrad", oriented["radius"])):
        far, candidates = levels.far(t).any(axis=1), levels._reach >= t
        out[f"rows_{name}"] = {"far": int(np.count_nonzero(far)), "candidates": int(np.count_nonzero(candidates))}
    ms = {
        "parse": best_ms(lambda: parse_domain(text)),
        "validate": best_ms(lambda: validate(domain)),
        "sweeps": best_ms(lambda: (horizontal_decomposition(domain), vertical_decomposition(domain))),
        "build_graph": best_ms(lambda: build_graph(hdec, vdec)),
        "all_pairs": best_ms(lambda: all_pairs(graph)),
        "all_pairs_radius": best_ms(lambda: all_pairs(graph, "radius")),
    }
    for kind, engines in ENGINES.items():
        t, name = oriented[kind], "ordiam" if kind == "diameter" else "orrad"
        ms[kind] = best_ms(lambda: fresh().extreme(kind))
        ms[f"far_{name}"] = best_ms(lambda: fresh().far(t))
        ms[f"{kind}+far"] = best_ms(lambda: extreme_and_far(fresh(), kind, t))
        if t >= 4:
            far = levels.far(t)
            for algo, engine in engines.items():
                ms[f"{kind}_{algo}"] = best_ms(lambda: engine(graph, far))
    return out | {"ms": ms}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", default=",".join(str(w) for w, _ in LADDER), help="grid widths to run")
    widths = {int(w) for w in parser.parse_args().rungs.split(",")}
    for width, seed in LADDER:
        if width in widths:
            print(json.dumps(rung(width, seed)), flush=True)


if __name__ == "__main__":
    main()
