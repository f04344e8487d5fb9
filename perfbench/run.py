"""rectilink benchmark: four CLI workloads, end-to-end metrics, a per-layer traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload extremes-large --seed 1 --seconds 8 --trace 0

Every command goes through ``rectilink.cli.main`` in-process, in a closed loop
with one client.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import workloads as wl
from speed import REFERENCE_S, Speed
from tracing import SPAN_NAMES, Tracer, wrapper_cost_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
SELECT = {
    "extremes-large": wl.large_instances,
    "cli-defaults": wl.defaults_instances,
    "verify-corpus": wl.corpus_instances,
    "dist-queries": wl.large_instances,
}
# Whole rounds run until --seconds have passed, and at least this many.  On
# grid 120 a round is six commands of about 1.7 s, and one pass leaves the
# median to two or three of them; a verify-corpus round takes 7-12 s.
MIN_ROUNDS = {"extremes-large": 2, "dist-queries": 2, "verify-corpus": 2}
HOT_CALLS = ("crossing.CrossingStore.pop_crossing", "oracle.GridModel.costs_from")
COMPUTED = {  # computed per-layer counts: name -> (unit, how instances combine)
    "graph.m": ("count", "mean"),
    "graph.chi": ("count", "mean"),
    "graph.table_mb": ("MiB", "max"),
    "metrics.far_entries": ("count", "mean"),
    "oracle.faces": ("count", "mean"),
    "oracle.cells": ("count", "mean"),
}


def load_package():
    """Import rectilink afresh from the checkout's sources; third-party modules stay loaded."""
    for name in [n for n in sys.modules if n == "rectilink" or n.startswith("rectilink.")]:
        del sys.modules[name]
    pkg = importlib.import_module("rectilink")
    importlib.import_module("rectilink.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported rectilink from {pkg.__file__}, not from {SRC}")
    return pkg


def write_instances(rl, instances, work: Path, stem: str = "inst") -> None:
    for i, inst in enumerate(instances):
        domain = rl.gen_domain(rl.GenParams(**inst.params))
        inst.text = json.dumps(rl.domain_to_instance(domain)) + "\n"
        inst.path = str(work / f"{stem}{i:03d}.json")
        Path(inst.path).write_text(inst.text)


def setup(instances, work: Path, speed: Speed):
    """Import rectilink and generate and write every instance, SETUP_REPS times.

    Returns the package, and the (start, end) times of each repetition.
    """
    spans = []
    for _ in range(SETUP_REPS):
        speed.sample()
        t0 = time.perf_counter()
        rl = load_package()
        write_instances(rl, instances, work)
        spans.append((t0, time.perf_counter()))
    speed.sample()
    return rl, spans


@dataclass
class Record:
    cmd: wl.Command
    start: float
    seconds: float
    rc: int | None
    out: str
    err: str | None


def run_round(cli, cmds, records, tracer=None, speed=None):
    for cmd in cmds:
        if speed is not None:
            speed.maybe_sample()
        if tracer is not None:
            tracer.command_id = len(records)
        t0 = time.perf_counter()
        rc, out, err = wl.call(cli, cmd.argv)
        records.append(Record(cmd, t0, time.perf_counter() - t0, rc, out, err))


def pct(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def engine_outcomes(records) -> tuple[int, int, int]:
    """(engine calls, fallback routings, results found only after an exhausted search)."""
    calls = routed = full = 0

    def tally(kind, entry, ordiam, orrad):
        nonlocal calls, routed, full
        calls += 1
        if entry["routed_to_fallback"]:
            routed += 1
        elif entry["value"] == (ordiam - 2 if kind == "diameter" else orrad - 1):
            full += 1

    for rec in records:
        if rec.rc != 0 or rec.cmd.kind == "dist":
            continue
        try:
            payload = json.loads(rec.out)
            if rec.cmd.kind == "verify":
                stats = payload["instance"]
                for kind in ("diameter", "radius"):
                    for algo, entry in payload[kind].items():
                        if algo != "oracle":
                            tally(kind, entry, stats["ordiam"], stats["orrad"])
            else:
                tally(rec.cmd.kind, payload, payload.get("ordiam", 0), payload.get("orrad", 0))
        except (ValueError, KeyError, TypeError):
            continue  # an unreadable output is already counted as a failed command
    return calls, routed, full


def environment(seed: int) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    sources = hashlib.sha256()
    for path in sorted((SRC / "rectilink").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": sources.hexdigest()[:16],
        "workload_seed": seed,
    }


def baseline_note(workload: str, seed: int, fingerprint: str) -> str | None:
    path = HERE / "baseline" / f"{workload}.jsonl"
    if not path.is_file():
        return None
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        if entry["seed"] == seed:
            if entry["workload_fingerprint"] == fingerprint:
                return "inputs match the committed baseline for this seed"
            return "inputs DIFFER from the committed baseline for this seed: a different workload, not a comparison"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SELECT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rectilink" / "__init__.py").is_file():
        print(f"perfbench: no rectilink sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, work: Path) -> dict:
    stages = {}  # wall seconds of each stage of the run, for sizing
    mark = time.perf_counter()

    def stage(name):
        nonlocal mark
        now = time.perf_counter()
        stages[name] = now - mark
        mark = now

    rl = load_package()
    import_cold_s = time.perf_counter() - mark
    speed = Speed()
    instances = SELECT[args.workload](rl, args.seed)
    stage("select")
    rl, setup_spans = setup(instances, work, speed)
    setup_runs = [t1 - t0 for t0, t1 in setup_spans]
    setup_factors = [speed.factor(t0, t1) for t0, t1 in setup_spans]
    stage("setup")
    cli = sys.modules["rectilink.cli"]
    warm = [wl.warmup_instance()]
    write_instances(rl, warm, work, "warm")
    if args.workload == "dist-queries":
        wl.add_queries(rl, warm, args.seed)
        wl.add_queries(rl, instances, args.seed)
    cmds = wl.commands(args.workload, instances)
    for cmd in wl.commands(args.workload, warm):  # warm-up, untimed and unchecked
        wl.call(cli, cmd.argv)
    records: list[Record] = []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS.get(args.workload, 1) or time.perf_counter() - start < args.seconds:
        run_round(cli, cmds, records, speed=speed)
        rounds += 1
    window_s = time.perf_counter() - start
    speed.sample()
    factors = [speed.factor(r.start, r.start + r.seconds) for r in records]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stage("window")

    traced: list[Record] = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            for inst in instances:  # set-up work, traced once outside the round
                rl.gen_domain(rl.GenParams(**inst.params))
            t0 = time.perf_counter()
            run_round(cli, cmds, traced, tracer)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        stage("traced")

    checker = wl.Checker(rl, cli, args.workload, instances, layer_counts=bool(args.trace))
    checker.build()
    stage("references")
    failures = {}
    for k in sorted(range(len(records)), key=lambda k: records[k].cmd.inst):  # one instance at a time
        reason = checker.verdict(records[k].cmd, records[k].rc, records[k].out, records[k].err)
        if reason:
            failures[k] = reason
    checker.witness_unchecked = 0
    traced_failures = [r for r in (checker.verdict(t.cmd, t.rc, t.out, t.err) for t in traced) if r]
    traced_unchecked = checker.witness_unchecked
    # Self-test: a deliberately wrong reference must fail every command on that instance.
    wrong = checker.corrupted()
    selftest_ok = all(checker.verdict(r.cmd, r.rc, r.out, r.err, wrong) for r in records if r.cmd.inst == 0)
    stage("checks")

    latencies = [r.seconds for r in records]
    normalised = [r.seconds / f for r, f in zip(records, factors)]
    attempted = len(records) + len(traced)
    failed = len(failures) + len(traced_failures)
    by_kind = {}
    for rec, seconds in zip(records, normalised):
        by_kind.setdefault(rec.cmd.kind, []).append(seconds)
    inputs = [(r["sha256"], r.get("queries")) for r in checker.fingerprints]  # identity, not description
    fingerprint = hashlib.sha256(json.dumps({"workload": args.workload, "inputs": inputs}).encode()).hexdigest()[:16]

    busy_s = sum(latencies)  # the window without the probes between commands
    measured = {
        "setup_s": (statistics.median(setup_runs), "s"),
        "ops_per_s": (len(records) / busy_s, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
    }
    # Times at the reference speed: each measured stretch over its own speed factor.
    end_to_end = {
        "setup_s": (statistics.median(t / f for t, f in zip(setup_runs, setup_factors)), "s"),
        "ops_per_s": (len(records) / sum(normalised), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(normalised), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    workload_specific = {
        f"{kind}_p50_ms": (1000 * statistics.median(v), "ms", len(v)) for kind, v in by_kind.items()
    }
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        workload_specific["latency_p90_ms"] = (1000 * pct(normalised, 90), "ms", len(latencies))
    setup_factor = statistics.median(setup_factors)
    window_factor = busy_s / sum(normalised)  # the window's mean factor, weighted by command time

    if args.trace:
        per_layer = layer_metrics(tracer, checker, traced, traced_s, busy_s / rounds, traced_unchecked, len(cmds))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed),
        "workload_fingerprint": fingerprint,
        "instances": checker.fingerprints,
        "import_cold_s": import_cold_s,
        "setup_runs_s": setup_runs,
        "stages_s": stages,
        "rounds": rounds,
        "window_s": window_s,
        "commands_per_round": len(cmds),
        "speed_factor": {"setup": setup_factor, "window": window_factor, "reference_probe_s": REFERENCE_S},
        "probe_s": speed.samples,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "measured": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
        "workload_specific": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in workload_specific.items()},
        "fail_ratio": {"failed": failed, "attempted": attempted},
        "latencies_ms": [[r.cmd.inst, r.cmd.kind, 1000 * r.seconds, f] for r, f in zip(records, factors)],
        "failures": [{"argv": list(records[k].cmd.argv), "reason": r} for k, r in list(failures.items())[:20]]
        + [{"traced": True, "reason": r} for r in traced_failures[:20]],
        "wrong_reference_selftest": selftest_ok,
        "metrics": metrics,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(results / f"{stem}.spans.jsonl")

    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances, fingerprint {fingerprint}")
    note = baseline_note(args.workload, args.seed, fingerprint)
    if note:
        print(note)
    print(f"rounds {rounds} x {len(cmds)} commands in {window_s:.2f} s; cold import {import_cold_s:.3f} s")
    print("  stages " + " ".join(f"{k}={v:.2f}s" for k, v in stages.items()))
    print(f"  times at the reference speed: measured / speed factor (set-up {setup_factor:.4g},"
          f" window {window_factor:.4g})")
    for name, (v, u) in end_to_end.items():
        print(f"  {name} = {v:.6g} {u}" + (f" (n={len(latencies)})" if "latency" in name else ""))
    for name, (v, u, n) in workload_specific.items():
        print(f"  {name} = {v:.6g} {u} (n={n})")
    print("  measured: " + ", ".join(f"{name} = {v:.6g} {u}" for name, (v, u) in measured.items()))
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for item in report["failures"][:5]:
        print(f"  FAILED: {item}")
    if not selftest_ok:
        print("  SELF-TEST FAILED: a wrong reference was not counted as a failure")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")

    return {
        "correct": failed == 0 and selftest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(tracer, checker, traced, traced_s, untraced_round_s, unchecked, round_commands) -> dict:
    """Per-layer metrics from one traced round of the workload's command list."""
    totals = tracer.totals()
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = (totals[name]["self_s"], "s")
        out[f"{name}.calls"] = (totals[name]["calls"], "count")
    for name, (u, how) in COMPUTED.items():
        values = checker.counts.get(name)
        value = (max(values) if how == "max" else statistics.fmean(values)) if values else 0
        out[name] = (value, u)
    calls, routed, full = engine_outcomes(traced)
    out["metrics.engine_calls"] = (calls, "count")
    out["metrics.fallback_ratio"] = (routed / calls if calls else 0.0, "ratio")
    out["metrics.full_scan_ratio"] = (full / calls if calls else 0.0, "ratio")
    out["pipeline.witness_unchecked"] = (unchecked, "count")
    out["bench.round_commands"] = (round_commands, "count")
    out["bench.traced_round_s"] = (traced_s, "s")
    out["bench.untraced_round_s"] = (untraced_round_s, "s")
    overhead = traced_s - untraced_round_s
    hot = sum(totals[n]["calls"] for n in HOT_CALLS) * wrapper_cost_s()
    out["trace.overhead_ratio"] = (1 - untraced_round_s / traced_s, "ratio")  # ops/s lost to tracing
    out["trace.hot_overhead_share"] = (hot / overhead if overhead > 0 else 0.0, "ratio")
    out["trace.spans"] = (len(tracer.start), "count")
    return out


if __name__ == "__main__":
    sys.exit(main())
