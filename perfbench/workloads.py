"""Workload inputs, command lists and the independent check of every output.

Inputs come from ``rectilink.gen_domain``, seeded from the workload seed (for
``verify-corpus``, the seed orders the test suite's fixed corpus).  The
references are computed after the timed window: other engines through the
CLI, the cut-grid oracle through the library, and the oriented extremes
through a breadth-first search of the benchmark's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

FILL = 0.45
LARGE = {"width": 120, "height": 120, "cells": int(120 * 120 * FILL), "holes": 3}
# Command time grows with the vertex count n, which ranges from about 1.6k to
# 3.0k at these parameters.  Of LARGE_CANDIDATES generated instances, the
# LARGE_COUNT with n closest to LARGE_TARGET_N are used, so the work per seed,
# and with it the per-seed figures, stay steady.
LARGE_TARGET_N = 2600
LARGE_CANDIDATES = 16
LARGE_COUNT = 3
DEFAULTS = {"width": 40, "height": 40, "cells": int(40 * 40 * FILL), "holes": 3}
DEFAULTS_COUNT = 32
CORPUS_COUNT = 200
MAX_ATTEMPTS = 200


@dataclass
class Instance:
    params: dict  # GenParams fields
    queries: list = field(default_factory=list)  # dist-queries: (p, q) in doubled coordinates
    path: str = ""
    text: str = ""


@dataclass(frozen=True)
class Command:
    inst: int
    kind: str  # diameter | radius | verify | dist
    argv: tuple[str, ...]
    query: int = -1  # index into the instance's queries


def call(cli, argv) -> tuple[int | None, str, str | None]:
    """Run ``cli.main`` in-process: exit code (None on an exception), stdout, error text.

    ``main`` is looked up on the module at each call, so a traced wrapper is seen.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        return (exc.code if isinstance(exc.code, int) else 2), out.getvalue(), err.getvalue().strip()
    except Exception as exc:  # any traceback the CLI lets through is a failed command
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue().strip() or None


def cli_json(cli, argv) -> dict:
    rc, out, err = call(cli, argv)
    if rc != 0:
        raise RuntimeError(f"reference command {' '.join(argv)} failed: rc={rc} {err}")
    return json.loads(out)


# ---------------------------------------------------------------- inputs


def _generate(rl, params: dict):
    return rl.gen_domain(rl.GenParams(**params))


def large_instances(rl, seed: int) -> list[Instance]:
    candidates = []
    for j in range(LARGE_CANDIDATES):
        params = dict(LARGE, seed=seed * 1000 + j)
        try:
            candidates.append((abs(_generate(rl, params).n - LARGE_TARGET_N), j, params))
        except ValueError:
            continue
    if len(candidates) < LARGE_COUNT:
        raise RuntimeError(f"seed {seed}: fewer than {LARGE_COUNT} grid-120 instances generated")
    chosen = sorted(candidates)[:LARGE_COUNT]
    return [Instance(params) for _, _, params in sorted(chosen, key=lambda c: c[1])]


def defaults_instances(rl, seed: int) -> list[Instance]:
    found = []
    for j in range(MAX_ATTEMPTS):
        params = dict(DEFAULTS, seed=seed * 1000 + j)
        try:
            _generate(rl, params)
        except ValueError:
            continue
        found.append(Instance(params))
        if len(found) == DEFAULTS_COUNT:
            return found
    raise RuntimeError(f"seed {seed}: could not generate {DEFAULTS_COUNT} grid-40 instances")


def corpus_instances(rl, seed: int) -> list[Instance]:
    """The test suite's 200-instance corpus (grids 3..12, up to 3 holes), in a seeded order.

    The members are fixed, as in the tests: a few large members take most of
    the time, so a corpus drawn per seed would move the totals by more than
    the regression bounds.  The workload seed sets the order of the commands.
    """
    found = []
    for k in range(CORPUS_COUNT):
        width = 3 + (7 * k) % 10
        height = 3 + (5 * k + 2) % 10
        fill = 0.45 + 0.12 * (k % 5)
        cells = max(1, min(width * height, int(width * height * fill)))
        holes = k % 4
        while True:
            params = {"width": width, "height": height, "cells": cells, "holes": holes, "seed": 10_000 + k}
            try:
                _generate(rl, params)
                break
            except ValueError:
                if holes == 0:
                    raise
                holes -= 1
        found.append(Instance(params))
    random.Random(seed).shuffle(found)
    return found


def warmup_instance() -> Instance:
    """A small generated instance, to warm the code paths before the window."""
    return Instance({"width": 6, "height": 6, "cells": 20, "holes": 0, "seed": 10_000})


def _odd_between(rng: random.Random, lo: int, hi: int) -> int:
    """Odd doubled coordinate strictly between two even ones: a generic half-unit point."""
    return lo + 1 + 2 * rng.randrange((hi - lo) // 2)


def add_queries(rl, instances: list[Instance], seed: int) -> None:
    """Two point pairs per instance: generic-generic, and slab-boundary-generic.

    A generic point is a half-unit point inside a rectangle of a slab
    decomposition.  A slab-boundary point lies on the shared side of two
    rectangles of one decomposition, so strictly inside the domain.
    """
    rng = random.Random(seed)
    for inst in instances:
        domain = rl.parse_domain(inst.text)
        hrects = rl.horizontal_decomposition(domain).rects
        vrects = rl.vertical_decomposition(domain).rects
        rects = hrects + vrects

        def interior(p) -> bool:
            return any(r.xmin < p[0] < r.xmax and r.ymin < p[1] < r.ymax for r in hrects)

        def generic():
            r = rects[rng.randrange(len(rects))]
            return (_odd_between(rng, r.xmin, r.xmax), _odd_between(rng, r.ymin, r.ymax))

        def on_slab_boundary():
            for _ in range(MAX_ATTEMPTS):
                k = rng.randrange(len(rects))
                r = rects[k]
                if k < len(hrects):  # top side of a horizontal rectangle
                    p, beyond = (_odd_between(rng, r.xmin, r.xmax), r.ymax), (0, 1)
                else:  # right side of a vertical rectangle
                    p, beyond = (r.xmax, _odd_between(rng, r.ymin, r.ymax)), (1, 0)
                if interior((p[0] + beyond[0], p[1] + beyond[1])):
                    return p
            raise RuntimeError("no interior slab-boundary point found")

        inst.queries = [(generic(), generic()), (on_slab_boundary(), generic())]


def unit(v: int) -> str:
    """Doubled coordinate in input units, as the CLI reads it."""
    return f"{v // 2}.5" if v % 2 else str(v // 2)


# ---------------------------------------------------------------- commands


def commands(workload: str, instances: list[Instance]) -> list[Command]:
    out = []
    for i, inst in enumerate(instances):
        if workload == "extremes-large":
            out.append(Command(i, "diameter", ("diameter", inst.path, "--algo", "fast")))
            out.append(Command(i, "radius", ("radius", inst.path, "--algo", "matmul")))
        elif workload == "cli-defaults":
            out.append(Command(i, "diameter", ("diameter", inst.path)))
            out.append(Command(i, "radius", ("radius", inst.path)))
        elif workload == "verify-corpus":
            out.append(Command(i, "verify", ("verify", inst.path)))
        else:
            for k, (p, q) in enumerate(inst.queries):
                argv = ("dist", inst.path, "--p", f"{unit(p[0])},{unit(p[1])}", "--q", f"{unit(q[0])},{unit(q[1])}")
                out.append(Command(i, "dist", argv, k))
    return out


# ---------------------------------------------------------------- references

# Engines run through ``rectilink bench`` as references for the timed command;
# bench reports the diameter of the last engine listed and the radius of
# matmul.  Edge-scan is left out on grid-120: one call takes 12-22 s on a
# 2-core Xeon, beyond a run's budget.
REFERENCE_ENGINES = {"extremes-large": "matmul", "cli-defaults": "matmul,fast", "verify-corpus": "matmul"}
STATS = ("n", "h", "m", "chi", "ordiam", "orrad")


def bfs_extremes(decomposed: dict) -> tuple[int, int, int]:
    """Oriented diameter, radius and far-entry count from the crossing graph's adjacency."""
    adj = decomposed["adjacency"]
    m = len(adj)
    indptr = np.cumsum([0] + [len(a) for a in adj])
    indices = np.fromiter((w for a in adj for w in a), dtype=np.int64, count=int(indptr[-1]))
    graph = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(m, m))
    row_max = np.empty(m, dtype=np.int64)
    hops = np.zeros(m + 1, dtype=np.int64)  # pairs per hop count
    for start in range(0, m, 256):
        rows = shortest_path(graph, directed=False, unweighted=True, indices=np.arange(start, min(start + 256, m)))
        if np.isinf(rows).any():
            raise RuntimeError("crossing graph is disconnected")
        rows = rows.astype(np.int64)
        row_max[start : start + len(rows)] = rows.max(axis=1)
        hops += np.bincount(rows.ravel(), minlength=m + 1)
    ordiam = int(row_max.max()) + 1
    return ordiam, int(row_max.min()) + 1, int(hops[ordiam - 1])


def oracle_eccentricity(grid, c) -> int:
    """Eccentricity of ``c`` over every inside cut-grid cell, at least 2.

    Equals ``rectilink.oracle_eccentricity`` (which maximises over face
    representatives) without enumerating the faces, which takes 6-9 s on a
    grid-120 instance.
    """
    cost_h, cost_v = grid.costs_from(grid.cell_of(c), cache=False)
    return max(2, int(np.minimum(cost_h, cost_v)[grid.inside].max()))


def oracle_extremes(grid) -> tuple[int, int]:
    """Diameter and radius: the largest and smallest eccentricity of the oracle's face representatives."""
    eccentricities = [oracle_eccentricity(grid, face.rep) for face in grid.faces()]
    return max(eccentricities), min(eccentricities)


def _generic_neighbours(p):
    xs = [p[0]] if p[0] % 2 else [p[0] - 1, p[0] + 1]
    ys = [p[1]] if p[1] % 2 else [p[1] - 1, p[1] + 1]
    return [(x, y) for x in xs for y in ys]


def oracle_point_distance(rl, grid, p, q) -> int:
    """Link distance from the oracle, which is exact for generic (odd) points.

    A point on a cut line is replaced by its generic neighbours half a unit to
    either side; the distance is the least over them, and at least 2 unless p
    and q share a coordinate.
    """
    if p == q:
        return 0
    v = min(rl.oracle_distance(grid, a, b) for a in _generic_neighbours(p) for b in _generic_neighbours(q))
    return v if p[0] == q[0] or p[1] == q[1] else max(2, v)


def _point(v) -> tuple[int, int]:
    return (int(round(2 * v[0])), int(round(2 * v[1])))


def fingerprint(inst: Instance, stats: dict) -> dict:
    record = {k: stats[k] for k in STATS if k in stats}
    record["sha256"] = hashlib.sha256(inst.text.encode()).hexdigest()[:16]
    if inst.queries:
        record["queries"] = inst.queries
    return record


class Checker:
    """References for one workload's instances, and the verdict on each output.

    With ``layer_counts`` it also computes the per-layer counts, and checks
    the oriented extremes against the benchmark's own breadth-first search.
    """

    def __init__(self, rl, cli, workload: str, instances: list[Instance], layer_counts: bool):
        self.rl = rl
        self.cli = cli
        self.workload = workload
        self.instances = instances
        self.layer_counts = layer_counts
        self.refs: list[dict] = []
        self.fingerprints: list[dict] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.witness_unchecked = 0
        self._grids: dict[int, object] = {}
        self._witness: dict[tuple, int | None] = {}

    def grid(self, i: int):
        if i not in self._grids:  # one grid at a time: they are large
            self._grids = {i: self.rl.build_grid(self.rl.parse_domain(self.instances[i].text))}
        return self._grids[i]

    def build(self) -> None:
        for i, inst in enumerate(self.instances):
            self.refs.append(self._reference(i, inst))

    def _reference(self, i: int, inst: Instance) -> dict:
        ref: dict = {"error": None}
        try:
            if self.workload == "dist-queries":
                # bench would cost a full prepare per instance; the trace run records m, chi and the extremes
                domain = self.rl.parse_domain(inst.text)
                stats = {"n": domain.n, "h": domain.h}
                ref["dist"] = [oracle_point_distance(self.rl, self.grid(i), p, q) for p, q in inst.queries]
            else:
                engines = REFERENCE_ENGINES[self.workload]
                stats = cli_json(self.cli, ["bench", inst.path, "--engines", engines, "--format", "json"])[0]
            if self.workload == "verify-corpus":
                ref["diameter"], ref["radius"] = oracle_extremes(self.grid(i))
            elif self.workload != "dist-queries":
                ref["diameter"] = {engines.split(",")[-1]: stats["diameter"]}
                ref["radius"] = {"matmul": stats["radius"]}
            if self.layer_counts:
                stats = self._count(i, inst, stats)
            self.fingerprints.append(fingerprint(inst, stats))
        except Exception as exc:  # a reference the program cannot produce fails the instance's commands
            ref["error"] = f"reference: {type(exc).__name__}: {exc}"
        return ref

    def _count(self, i: int, inst: Instance, stats: dict) -> dict:
        decomposed = cli_json(self.cli, ["decompose", inst.path, "--compact"])
        stats = {k: decomposed[k] for k in STATS} | stats
        ordiam, orrad, far = bfs_extremes(decomposed)
        if (ordiam, orrad) != (stats["ordiam"], stats["orrad"]):
            raise RuntimeError(f"the program reports ordiam/orrad {stats['ordiam']}/{stats['orrad']},"
                               f" breadth-first search gives {ordiam}/{orrad}")
        m = stats["m"]
        self.counts["graph.m"].append(m)
        self.counts["graph.chi"].append(stats["chi"])
        self.counts["graph.table_mb"].append(m * m * 2 / 2**20)
        self.counts["metrics.far_entries"].append(far)
        self.counts["oracle.cells"].append(int(self.grid(i).inside.sum()))
        if self.workload == "verify-corpus":
            self.counts["oracle.faces"].append(len(self.grid(i).faces()))
        return stats

    def verdict(self, cmd: Command, rc, out: str, error, refs: list[dict] | None = None) -> str | None:
        """None for a correct output, else the reason it failed."""
        ref = (refs or self.refs)[cmd.inst]
        if rc != 0:
            return f"exit code {rc}: {error}"
        if ref["error"]:
            return ref["error"]
        try:
            return self._compare(cmd, json.loads(out), ref)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unexpected output: {type(exc).__name__}: {exc}"

    def _compare(self, cmd: Command, payload: dict, ref: dict) -> str | None:
        if cmd.kind == "verify":
            if payload["verdict"] != "ok":
                return f"verdict {payload['verdict']}"
            for kind in ("diameter", "radius"):
                for algo, entry in payload[kind].items():
                    if entry["value"] != ref[kind]:
                        return f"{kind} {algo} = {entry['value']}, oracle {ref[kind]}"
                    if entry["witness_ok"] is None:
                        self.witness_unchecked += 1
            return None
        value = payload["value"]
        if cmd.kind == "dist":
            want = ref["dist"][cmd.query]
            return None if value == want else f"dist = {value}, oracle {want}"
        others = ref[cmd.kind]
        if any(v != value for v in others.values()):
            return f"{cmd.kind} = {value}, other engines {others}"
        witness = payload["witness"]
        key = (cmd.inst, cmd.kind, json.dumps(witness, sort_keys=True))
        if key not in self._witness:
            self._witness[key] = self._price_witness(cmd, witness)
        priced = self._witness[key]
        if priced is None:
            self.witness_unchecked += 1
            return None
        return None if priced == value else f"{cmd.kind} witness prices to {priced}, reported {value}"

    def _price_witness(self, cmd: Command, witness: dict) -> int | None:
        grid = self.grid(cmd.inst)
        try:
            if cmd.kind == "diameter":
                p, q = (_point(v) for v in witness["pair"])
                return self.rl.oracle_distance(grid, p, q)
            return oracle_eccentricity(grid, _point(witness["center"]))
        except self.rl.OutsidePointError:
            return None  # on the boundary: the oracle cannot price it

    def corrupted(self) -> list[dict]:
        """References with the first instance's values shifted by one, for the self-test."""
        refs = [dict(r) for r in self.refs]
        first = refs[0]
        for kind in ("diameter", "radius"):
            if isinstance(first.get(kind), dict):
                first[kind] = {**first[kind], "corrupted": -1}
            elif isinstance(first.get(kind), int):
                first[kind] += 1
        if "dist" in first:
            first["dist"] = [v + 1 for v in first["dist"]]
        return refs
