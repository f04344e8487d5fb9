"""Stage times on a fixed ladder of generated instances, one JSON object per rung.

Run from the root of a checkout::

    PYTHONPATH=src python tools/stage_ladder.py [--rungs 40,120,200]

Each rung is ``gen_domain(GenParams(w, w, int(0.45 * w * w), holes=3,
seed=s))`` for (w, s) in (40, 1000), (120, 1005), (200, 3).  Every stage is
timed in a fresh Python process of its own, started only after the last one
has exited: the process builds the rung's inputs (the domain, its text, both
decompositions, the graph and the full levels), then times its one stage, best of 7 after one warm-up
call, in milliseconds.  So no stage is timed after another stage's
allocations, which move glibc's dynamic mmap threshold and with it the time
of the next stage's large temporaries.  The stages:

* ``parse``, ``validate`` (the check itself, which ``require_valid`` runs
  once per domain and then reads from ``Domain.violations``), ``sweeps``
  (both decompositions), ``build_graph``, ``all_pairs`` (every level of
  every source), ``all_pairs_diameter`` (the search as the ``diameter``
  command runs it: rounds of 64 sources, or the full search where the
  rounds do not pay) and ``all_pairs_radius`` (the search stopped at the
  radius, as the ``radius`` command runs it);
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
``all_pairs_diameter`` gives the ``sources`` the diameter's search searched,
its ``rounds`` (1 for the one full search) and its ``floor`` (null after the
full search).  ``rows_ordiam`` and ``rows_orrad`` count the far relation's
rows at each threshold: ``far``, those holding an entry, and ``candidates``,
those ``Levels.far`` computes because they can hold one (the verticals by
whole 64-row word blocks), out of ``m``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
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
THRESHOLD = {"diameter": "ordiam", "radius": "orrad"}


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


class Rung:
    """The inputs of one rung, and each stage as a call on them."""

    def __init__(self, width: int, seed: int):
        self.domain = rung_domain(width, seed)
        self.text = json.dumps(domain_to_instance(self.domain))
        self.hdec, self.vdec = horizontal_decomposition(self.domain), vertical_decomposition(self.domain)
        self.graph = build_graph(self.hdec, self.vdec)
        self.levels = all_pairs(self.graph)
        self.oriented = {kind: self.levels.extreme(kind)[0] for kind in ENGINES}

    def fresh(self) -> Levels:
        """The same planes with no extreme and no far relation cached."""
        return Levels(self.graph, self.levels.planes)

    def stages(self) -> dict:
        """Each stage's call, by name; an engine's call reads the far relation that the warm-up call builds."""
        graph, domain, t = self.graph, self.domain, self.oriented
        calls = {
            "parse": lambda: parse_domain(self.text),
            "validate": lambda: validate(domain),
            "sweeps": lambda: (horizontal_decomposition(domain), vertical_decomposition(domain)),
            "build_graph": lambda: build_graph(self.hdec, self.vdec),
            "all_pairs": lambda: all_pairs(graph),
            "all_pairs_diameter": lambda: all_pairs(graph, "diameter"),
            "all_pairs_radius": lambda: all_pairs(graph, "radius"),
        }
        for kind, engines in ENGINES.items():
            calls[kind] = lambda kind=kind: self.fresh().extreme(kind)
            calls[f"far_{THRESHOLD[kind]}"] = lambda kind=kind: self.fresh().far(t[kind])
            calls[f"{kind}+far"] = lambda kind=kind: extreme_and_far(self.fresh(), kind, t[kind])
            if t[kind] >= 4:
                for algo, engine in engines.items():
                    calls[f"{kind}_{algo}"] = lambda kind=kind, engine=engine: engine(graph, self.levels.far(t[kind]))
        return calls

    def counts(self) -> dict:
        levels, graph = self.levels, self.graph
        diameter = all_pairs(graph, "diameter")
        out = {"m": graph.m, "chi": graph.chi}
        out |= {"search": levels.search, "level_bound": levels.bound, "skipped_targets": levels.skipped}
        out["all_pairs_diameter"] = {"sources": diameter.sources, "rounds": diameter.rounds, "floor": diameter.floor}
        out |= {"ordiam": self.oriented["diameter"], "orrad": self.oriented["radius"]}
        for kind, name in THRESHOLD.items():
            t = self.oriented[kind]
            far, candidates = levels.far(t).any(axis=1), levels._reach >= t
            out[f"rows_{name}"] = {"far": int(np.count_nonzero(far)), "candidates": int(np.count_nonzero(candidates))}
        return out


def rung(width: int, seed: int) -> dict:
    """The rung's counts, and each stage's time from a process of its own, one process at a time."""
    setup = Rung(width, seed)
    out = {"grid": width, "seed": seed} | setup.counts()
    ms = {}
    for name in setup.stages():
        argv = [sys.executable, __file__, "--time", f"{width},{seed},{name}"]
        ms[name] = float(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)
    return out | {"ms": ms}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", default=",".join(str(w) for w, _ in LADDER), help="grid widths to run")
    parser.add_argument("--time", help="WIDTH,SEED,STAGE: print that one stage's time (the per-stage process)")
    args = parser.parse_args()
    if args.time:
        width, seed, name = args.time.split(",")
        print(best_ms(Rung(int(width), int(seed)).stages()[name]))
        return
    widths = {int(w) for w in args.rungs.split(",")}
    for width, seed in LADDER:
        if width in widths:
            print(json.dumps(rung(width, seed)), flush=True)


if __name__ == "__main__":
    main()
