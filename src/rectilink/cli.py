"""Command-line interface: decompose, dist, diameter, radius, gen, verify, bench, render."""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

from .errors import RectilinkError, UnknownChoiceError
from .generator import GenParams, gen_domain
from .geometry import (
    COORD_LIMIT,
    Point,
    SCALE,
    domain_to_instance,
    horizontal_decomposition,
    parse_domain,
    point_out,
    require_valid,
    vertical_decomposition,
)
from .metrics import DIAMETER_ALGOS, EDGE_SCAN, ORACLE, RADIUS_ALGOS, point_distance
from .oracle import build_grid, oracle_distance
from .pipeline import decompose, instance_stats, prepare, run_verify, solve
from .svg import render_svg


def _read_domain(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise RectilinkError(f"cannot read {path}: {exc}") from exc
    return parse_domain(text)


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise RectilinkError(f"cannot write {path}: {exc}") from exc


def _load_domain(path: str):
    domain = _read_domain(path)
    require_valid(domain)
    return domain


def _coordinate(part: str, text: str) -> int:
    """One coordinate of the point ``text``, doubled; a decimal is sized before its exponent is expanded."""
    limit = COORD_LIMIT // SCALE  # the bound the rings' coordinates keep
    try:
        value = Decimal(part)
    except InvalidOperation:
        value = Fraction(part)  # "3/2"; anything else raises ValueError
    else:
        if not value.is_finite():
            raise ValueError(f"{part!r} is not finite")
    if not -limit <= value <= limit:
        raise RectilinkError(f"bad point {text!r}: coordinates must lie within ±{limit}")
    # a nonzero decimal below 0.1 is no multiple of 0.5, and its exponent may be too long to expand
    tiny = isinstance(value, Decimal) and value and value.adjusted() < -1
    scaled = None if tiny else Fraction(value) * SCALE
    if scaled is None or scaled.denominator != 1:
        raise RectilinkError(f"bad point {text!r}: finest supported resolution is 0.5")
    return int(scaled)


def _parse_point(text: str) -> Point:
    try:
        xs, ys = text.split(",")
        return (_coordinate(xs.strip(), text), _coordinate(ys.strip(), text))
    except (ValueError, ZeroDivisionError) as exc:
        raise RectilinkError(f"bad point {text!r}: expected X,Y") from exc


def _emit(payload, pretty: bool = True) -> None:
    print(json.dumps(payload, indent=2 if pretty else None))


def _cmd_decompose(args) -> int:
    domain = _load_domain(args.instance)
    prep = prepare(domain)
    graph = prep.graph
    rects = [
        {
            "id": i,
            "orientation": graph.orientation_of(i).value,
            "x": [xmin // SCALE, xmax // SCALE],
            "y": [ymin // SCALE, ymax // SCALE],
        }
        for i, (xmin, xmax, ymin, ymax) in enumerate(graph.boxes.tolist())
    ]
    report = instance_stats(prep)
    report["approx_diameter"] = report["ordiam"] - 1
    report["approx_radius"] = report["orrad"] - 1
    report["rects"] = rects
    report["adjacency"] = [graph.neighbours(i).tolist() for i in range(graph.m)]
    _emit(report, not args.compact)
    return 0


def _cmd_dist(args) -> int:
    domain = _load_domain(args.instance)
    p = _parse_point(args.p)
    q = _parse_point(args.q)
    if args.oracle:
        value, engine = oracle_distance(build_grid(domain), p, q), ORACLE
    else:
        value, engine = point_distance(*decompose(domain), p, q), "formula"
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
        prep = prepare(domain)
    prep_seconds = time.perf_counter() - t0
    solution = solve(args.command, args.algo, prep, grid)
    payload = solution.payload()
    timings = {"prepare_seconds": prep_seconds, "engine_seconds": solution.seconds}
    if prep is not None:
        oriented = "ordiam" if args.command == "diameter" else "orrad"
        payload[oriented] = prep.levels.extreme(args.command)[0]
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
        _write_text(args.out, json.dumps(instance) + "\n")
        _emit({"out": args.out, "n": domain.n, "h": domain.h, "seed": args.seed})
    else:
        _emit(instance, pretty=False)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(_read_domain(args.instance))  # checked once, in its timed prepare stage
    _emit(report)
    return 2 if report["verdict"] == "disagree" else 0


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise RectilinkError(f"--reps must be at least 1, got {args.reps}")
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    if not engines:
        raise UnknownChoiceError(f"--engines names no engine (choose from {', '.join(DIAMETER_ALGOS)})")
    rows = []
    for path in args.instances:
        domain = _load_domain(path)
        t0 = time.perf_counter()
        prep = prepare(domain)
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
        prep = prepare(domain)
        result = solve(args.witness, EDGE_SCAN, prep).result
        points = result.pair if args.witness == "diameter" else (result.center,)
        decomposition = {"H": prep.hdec, "V": prep.vdec}.get(args.dec)
    elif args.dec:  # only the drawn decomposition: no graph, no table
        decomposition = (horizontal_decomposition if args.dec == "H" else vertical_decomposition)(domain)
    text = render_svg(domain, decomposition=decomposition, points=points)
    if args.out:
        _write_text(args.out, text + "\n")
    else:
        print(text)
    return 0


@functools.cache  # one parser per process: building it costs about half a millisecond
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
    p.add_argument(
        "--p", required=True, help="first point as X,Y (0.5 steps allowed); a negative X needs the form --p=-3.5,2"
    )
    p.add_argument("--q", required=True, help="second point as X,Y; a negative X needs the form --q=-3.5,2")
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
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, inside the try
        return code
    except RectilinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a backstop: the memory check before the search is the stated limit
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again (the
        # recipe in the Python ``signal`` documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
