"""Command-line interface: decompose, dist, diameter, radius, gen, verify, bench, render."""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from .errors import RectilinkError
from .generator import GenParams, gen_domain
from .geometry import (
    Point,
    SCALE,
    domain_to_instance,
    horizontal_decomposition,
    parse_domain,
    require_valid,
    vertical_decomposition,
)
from .metrics import DIAMETER_ALGOS, EDGE_SCAN, ORACLE, RADIUS_ALGOS, point_distance
from .oracle import build_grid, oracle_distance
from .pipeline import decompose, instance_stats, point_out, prepare, run_verify, solve
from .svg import render_svg


def _load_domain(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise RectilinkError(f"cannot read {path}: {exc}") from exc
    domain = parse_domain(text)
    require_valid(domain)
    return domain


def _parse_point(text: str) -> Point:
    try:
        xs, ys = text.split(",")
        scaled = [Fraction(part.strip()) * SCALE for part in (xs, ys)]
    except (ValueError, ZeroDivisionError) as exc:
        raise RectilinkError(f"bad point {text!r}: expected X,Y") from exc
    for value in scaled:
        if value.denominator != 1:
            raise RectilinkError(f"bad point {text!r}: finest supported resolution is 0.5")
    return (int(scaled[0]), int(scaled[1]))


def _emit(payload, pretty: bool = True) -> None:
    print(json.dumps(payload, indent=2 if pretty else None))


def _cmd_decompose(args) -> int:
    domain = _load_domain(args.instance)
    prep = prepare(domain, validated=True)
    rects = [
        {
            "id": rect.id,
            "orientation": rect.orientation.value,
            "x": [rect.xmin // SCALE, rect.xmax // SCALE],
            "y": [rect.ymin // SCALE, rect.ymax // SCALE],
        }
        for rect in prep.graph.rects
    ]
    report = instance_stats(prep)
    report["approx_diameter"] = prep.summary.ordiam - 1
    report["approx_radius"] = prep.summary.orrad - 1
    report["rects"] = rects
    report["adjacency"] = [list(neigh) for neigh in prep.graph.adj]
    _emit(report, not args.compact)
    return 0


def _cmd_dist(args) -> int:
    domain = _load_domain(args.instance)
    p = _parse_point(args.p)
    q = _parse_point(args.q)
    if args.oracle:
        value, engine = oracle_distance(build_grid(domain), p, q), ORACLE
    else:
        value, engine = point_distance(*decompose(domain, validated=True), p, q), "formula"
    _emit({"value": value, "p": point_out(p), "q": point_out(q), "engine": engine})
    return 0


def _cmd_extreme(args) -> int:
    """``diameter`` and ``radius``: one engine, or the oracle, with the stage timings."""
    domain = _load_domain(args.instance)
    t0 = time.perf_counter()
    prep = grid = None
    if args.algo == ORACLE:
        grid = build_grid(domain)
    else:
        prep = prepare(domain, validated=True)
    prep_seconds = time.perf_counter() - t0
    solution = solve(args.command, args.algo, prep, grid)
    payload = solution.payload()
    timings = {"prepare_seconds": prep_seconds, "engine_seconds": solution.seconds}
    if prep is not None:
        oriented = "ordiam" if args.command == "diameter" else "orrad"
        payload[oriented] = getattr(prep.summary, oriented)
        timings["stage_seconds"] = prep.seconds
    payload["requested_algo"] = args.algo
    payload["timings"] = timings
    _emit(payload)
    return 0


def _cmd_gen(args) -> int:
    params = GenParams(
        width=args.width,
        height=args.height,
        cells=args.cells,
        holes=args.holes,
        scale=args.scale,
        seed=args.seed,
    )
    try:
        domain = gen_domain(params)
    except ValueError as exc:
        raise RectilinkError(str(exc)) from exc
    instance = domain_to_instance(domain)
    if args.out:
        Path(args.out).write_text(json.dumps(instance) + "\n")
        _emit({"out": args.out, "n": domain.n, "h": domain.h, "seed": args.seed})
    else:
        _emit(instance, pretty=False)
    return 0


def _cmd_verify(args) -> int:
    domain = _load_domain(args.instance)
    report = run_verify(domain)
    _emit(report)
    return 2 if report["verdict"] == "disagree" else 0


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise RectilinkError(f"--reps must be at least 1, got {args.reps}")
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    rows = []
    for path in args.instances:
        domain = _load_domain(path)
        t0 = time.perf_counter()
        prep = prepare(domain, validated=True)
        prep_seconds = time.perf_counter() - t0
        row = {"instance": path} | instance_stats(prep)
        row["prep_seconds"] = round(prep_seconds, 6)
        for kind, algos in (("diameter", engines), ("radius", [a for a in engines if a in RADIUS_ALGOS])):
            for algo in algos:
                runs = [solve(kind, algo, prep) for _ in range(args.reps)]
                row[kind] = runs[-1].result.value
                row[f"{kind}_{algo}_seconds"] = round(statistics.median(run.seconds for run in runs), 6)
        rows.append(row)
    if args.format == "json":
        _emit(rows)
    else:
        import csv

        columns: list[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        writer = csv.DictWriter(sys.stdout, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return 0


def _cmd_render(args) -> int:
    domain = _load_domain(args.instance)
    decomposition = None
    points: tuple[Point, ...] = ()
    if args.witness:
        prep = prepare(domain, validated=True)
        result = solve(args.witness, EDGE_SCAN, prep).result
        points = result.pair if args.witness == "diameter" else (result.center,)
        decomposition = {"H": prep.hdec, "V": prep.vdec}.get(args.dec)
    elif args.dec:  # only the drawn decomposition: no graph, no table
        decomposition = (horizontal_decomposition if args.dec == "H" else vertical_decomposition)(domain)
    text = render_svg(domain, decomposition=decomposition, points=points)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectilink",
        description="Rectilinear link distance, diameter and radius of rectilinear domains with holes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="slab decompositions, crossing graph and oriented extremes")
    p.add_argument("instance")
    p.add_argument("--compact", action="store_true", help="single-line JSON output")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("dist", help="link distance between two points")
    p.add_argument("instance")
    p.add_argument("--p", required=True, help="first point as X,Y (0.5 steps allowed)")
    p.add_argument("--q", required=True, help="second point as X,Y")
    p.add_argument("--oracle", action="store_true", help="use the grid oracle instead of the formula")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("diameter", help="rectilinear link diameter with witness pair")
    p.add_argument("instance")
    p.add_argument("--algo", default=EDGE_SCAN, choices=list(DIAMETER_ALGOS) + [ORACLE])
    p.set_defaults(func=_cmd_extreme)

    p = sub.add_parser("radius", help="rectilinear link radius with center witness")
    p.add_argument("instance")
    p.add_argument("--algo", default=EDGE_SCAN, choices=list(RADIUS_ALGOS) + [ORACLE])
    p.set_defaults(func=_cmd_extreme)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--holes", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=None, help="grid line spacing (default: auto)")
    p.add_argument("--out", default=None, help="write the instance JSON here instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="all engines plus oracle; exit 2 on any disagreement")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="engine timings over instances (CSV or JSON)")
    p.add_argument("instances", nargs="+")
    p.add_argument("--engines", default=",".join(DIAMETER_ALGOS))
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("render", help="SVG drawing of the domain with optional overlays")
    p.add_argument("instance")
    p.add_argument("--dec", choices=("H", "V"), default=None)
    p.add_argument("--witness", choices=("diameter", "radius"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RectilinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
