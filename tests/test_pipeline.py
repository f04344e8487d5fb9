"""The one solve path: CLI, verify and bench agree; each extreme, far relation and engine runs once; typed choices."""

import json
import sys

import pytest

import rectilink.geometry
import rectilink.graph
import rectilink.metrics
import rectilink.oracle
import rectilink.pipeline
from rectilink import (
    InvalidDomainError,
    OutsidePointError,
    RectilinkError,
    UnknownChoiceError,
    decompose,
    domain_to_instance,
    parse_domain,
    prepare,
    run_verify,
    solve,
)
from rectilink.cli import main
from rectilink.graph import Levels
from rectilink.metrics import DIAMETER_ALGOS, ORACLE, RADIUS_ALGOS, compute

ALGOS = {"diameter": DIAMETER_ALGOS + (ORACLE,), "radius": RADIUS_ALGOS + (ORACLE,)}
VALUE_FIELDS = ("value", "engine", "routed_to_fallback", "witness")


def cli_json(capsys, *argv):
    code = main(list(argv))
    assert code == 0, argv
    return json.loads(capsys.readouterr().out)


def write_instances(tmp_path, instances):
    paths = []
    for inst in instances:
        path = tmp_path / f"{inst.name}.json"
        path.write_text(json.dumps(domain_to_instance(inst.domain)))
        paths.append(str(path))
    return paths


class TestCrossPath:
    def test_cli_verify_and_bench_agree(self, capsys, tmp_path, fixtures, corpus):
        instances = fixtures + corpus[::10]
        for path in write_instances(tmp_path, instances):
            report = cli_json(capsys, "verify", path)
            for kind, algos in ALGOS.items():
                for algo in algos:
                    payload = cli_json(capsys, kind, path, "--algo", algo)
                    entry = report[kind][algo]
                    assert {f: payload[f] for f in VALUE_FIELDS} == {f: entry[f] for f in VALUE_FIELDS}, (
                        path,
                        kind,
                        algo,
                    )
            for algo in DIAMETER_ALGOS:
                (row,) = cli_json(capsys, "bench", path, "--engines", algo, "--format", "json")
                assert row["diameter"] == report["diameter"][algo]["value"], (path, algo)
                if algo in RADIUS_ALGOS:
                    assert row["radius"] == report["radius"][algo]["value"], (path, algo)


def count_calls(monkeypatch, original) -> list:
    """Count calls of ``original`` through every module attribute of the package bound to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "rectilink" or name.startswith("rectilink."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.fixture()
def levels_calls(monkeypatch) -> dict:
    """The arguments of every call of each extreme's computation and of the far relation's compare, by name."""
    calls = {}
    for name in ("_diameter", "_radius", "_far_h"):
        calls[name] = []

        def counted(self, *args, _original=getattr(Levels, name), _calls=calls[name]):
            _calls.append(args)
            return _original(self, *args)

        monkeypatch.setattr(Levels, name, counted)
    return calls


ENGINES = (
    "diameter_edge_scan",
    "diameter_matmul",
    "diameter_fast",
    "radius_edge_scan",
    "radius_matmul",
    "small_case_fallback",
)


class TestComputedOnce:
    def test_extremes_once_per_command(self, capsys, tmp_path, levels_calls, donut, lshape):
        """A ``diameter`` command computes its extreme once and no radius extreme, a ``radius`` command the
        reverse, ``verify`` and ``decompose`` each extreme once, and no command builds a far threshold twice."""
        for path in write_instances(tmp_path, [donut, lshape]):
            commands = [(kind, path, "--algo", algo) for kind, algos in ALGOS.items() for algo in algos]
            for argv in commands + [("verify", path), ("decompose", path)]:
                for calls in levels_calls.values():
                    calls.clear()
                cli_json(capsys, *argv)
                both = argv[0] in ("verify", "decompose")
                expected = {
                    f"_{kind}": int(argv[-1] != ORACLE and (both or argv[0] == kind)) for kind in ("diameter", "radius")
                }
                assert {name: len(levels_calls[name]) for name in expected} == expected, argv
                thresholds = [t for (t,) in levels_calls["_far_h"]]
                assert len(thresholds) == len(set(thresholds)), (argv, thresholds)
                assert thresholds or argv[-1] == ORACLE or argv[0] == "decompose", argv

    def test_verify_runs_each_fallback_once(self, monkeypatch, lshape):
        """Every radius engine routes the L-shape to the fallback; ``verify`` runs it once and reports it per engine."""
        calls = count_calls(monkeypatch, rectilink.metrics.small_case_fallback)
        report = run_verify(lshape.domain)
        assert len(calls) == 1
        assert [report["radius"][algo]["engine"] for algo in RADIUS_ALGOS] == ["fallback"] * len(RADIUS_ALGOS)
        assert report["radius"][ORACLE]["value"] == report["radius"][RADIUS_ALGOS[0]]["value"]

    def test_verify_validates_once(self, capsys, tmp_path, monkeypatch, donut, lshape):
        """``verify`` validates its domain once, inside the prepare stage it times; a bad domain still fails typed."""
        calls = count_calls(monkeypatch, rectilink.geometry.validate)
        for path in write_instances(tmp_path, [donut, lshape]):
            calls.clear()
            assert cli_json(capsys, "verify", path)["timings"]["prepare_seconds"] > 0
            assert len(calls) == 1, path
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"outer": [[0, 0], [5, 0], [10, 0], [10, 10], [0, 10]]}))
        assert main(["verify", str(bad)]) == 1
        assert "alternation" in capsys.readouterr().err

    def test_each_command_validates_once(self, capsys, tmp_path, monkeypatch, donut, lshape):
        """Each command validates its domain once, on loading, however often it is checked after; ``prepare`` and
        ``decompose`` still refuse a bad domain with the typed error."""
        calls = count_calls(monkeypatch, rectilink.geometry.validate)
        for path in write_instances(tmp_path, [donut, lshape]):
            commands = [
                ("diameter", path),
                ("radius", path),
                ("dist", path, "--p", "1.5,2.5", "--q", "2.5,8.5"),
                ("bench", path),
                ("render", path, "--witness", "radius"),
            ]
            for argv in commands:
                calls.clear()
                assert main(list(argv)) == 0, argv
                capsys.readouterr()
                assert len(calls) == 1, argv
        for step in (prepare, decompose):
            with pytest.raises(InvalidDomainError, match="alternation"):
                step(parse_domain({"outer": [[0, 0], [5, 0], [10, 0], [10, 10], [0, 10]]}))

    def test_verify_prices_each_witness_once(self, monkeypatch, fixtures, corpus):
        """``run_verify`` asks the oracle once per distinct (kind, pair or centre, value) of its report."""
        distances = count_calls(monkeypatch, rectilink.oracle.oracle_distance)
        eccentricities = count_calls(monkeypatch, rectilink.oracle.oracle_eccentricity)
        shared = 0
        for inst in fixtures + corpus[:40]:
            distances.clear()
            eccentricities.clear()
            report = run_verify(inst.domain)
            for kind, calls, field in (("diameter", distances, "pair"), ("radius", eccentricities, "center")):
                witnesses = {(json.dumps(e["witness"][field]), e["value"]) for e in report[kind].values()}
                assert len(calls) == len(witnesses), (inst.name, kind)
                assert all(e["witness_ok"] for e in report[kind].values()), (inst.name, kind)
                shared += len(report[kind]) - len(witnesses)
        assert shared > 0

    def test_engine_once_per_solve(self, monkeypatch, donut):
        """The router calls the requested engine through its module attribute, once."""
        calls = {name: count_calls(monkeypatch, getattr(rectilink.metrics, name)) for name in ENGINES}
        for kind, algos in ALGOS.items():
            for algo in algos[:-1]:  # the engines; the oracle is last
                for counted in calls.values():
                    counted.clear()
                assert not solve(kind, algo, donut.prep).routed
                engine = f"{kind}_{algo.replace('-', '_')}"
                assert {name: len(c) for name, c in calls.items()} == {n: int(n == engine) for n in ENGINES}

    def test_dist_builds_no_table(self, capsys, tmp_path, monkeypatch, donut):
        """A point query searches the crossing graph; the extremes still build the table once."""
        calls = count_calls(monkeypatch, rectilink.graph.all_pairs)
        (path,) = write_instances(tmp_path, [donut])
        # a generic pair, then p on the boundary of two horizontal slabs (y = 6)
        for p, q, value in [("1.5,2.5", "12.5,11.5", 2), ("2,6", "12.5,7.5", 2)]:
            assert cli_json(capsys, "dist", path, "--p", p, "--q", q)["value"] == value, (p, q)
        assert calls == []
        cli_json(capsys, "diameter", path)
        assert len(calls) == 1

    def test_render_dec_builds_no_table(self, capsys, tmp_path, monkeypatch, donut):
        """Drawing a decomposition builds neither the graph nor the table; drawing a witness does."""
        tables = count_calls(monkeypatch, rectilink.graph.all_pairs)
        graphs = count_calls(monkeypatch, rectilink.graph.build_graph)
        (path,) = write_instances(tmp_path, [donut])
        for dec in ("H", "V"):
            assert main(["render", path, "--dec", dec]) == 0
            assert capsys.readouterr().out.count('class="cell"') == 4, dec
        assert (tables, graphs) == ([], [])
        assert main(["render", path, "--witness", "diameter"]) == 0
        assert capsys.readouterr().out.count('class="witness"') == 2
        assert (len(tables), len(graphs)) == (1, 1)


class TestVerdict:
    def test_unpriced_witness_is_unchecked(self, capsys, tmp_path, monkeypatch, lshape):
        """A witness the oracle cannot price makes the verdict "unchecked" (exit 0); a wrong price still disagrees."""

        def unpriced(grid, p, q):
            raise OutsidePointError(f"point {p} lies outside the domain")

        monkeypatch.setattr(rectilink.pipeline, "oracle_distance", unpriced)
        (path,) = write_instances(tmp_path, [lshape])
        report = run_verify(lshape.domain)
        assert {e["witness_ok"] for e in report["diameter"].values()} == {None}
        assert {e["witness_ok"] for e in report["radius"].values()} == {True}
        assert report["verdict"] == "unchecked"
        assert main(["verify", path]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "unchecked"

        monkeypatch.setattr(rectilink.pipeline, "oracle_eccentricity", lambda grid, c: 0)
        assert run_verify(lshape.domain)["verdict"] == "disagree"
        assert main(["verify", path]) == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "disagree"


class TestTypedChoices:
    def test_unknown_choices_raise_rectilink_error(self, donut):
        prep = donut.prep
        calls = [
            lambda: solve("diameter", "quantum", prep),
            lambda: solve("radius", "fast", prep),
            lambda: solve("diameter", ORACLE, prep),  # the oracle needs a grid
            lambda: solve("girth", "matmul", prep),
            lambda: compute("diameter", prep.levels, "quantum"),
            lambda: compute("radius", prep.levels, "fast"),
            lambda: compute("girth", prep.levels, "matmul"),
        ]
        for call in calls:
            with pytest.raises(UnknownChoiceError) as info:
                call()
            assert isinstance(info.value, RectilinkError) and isinstance(info.value, ValueError)

    def test_missing_input_names_it(self, monkeypatch):
        """An engine without ``prep``, or the oracle without ``grid`` or ``prep``, is refused first, naming it."""
        for name in ("compute", "oracle_diameter"):
            monkeypatch.setattr(rectilink.pipeline, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        with pytest.raises(RectilinkError, match=r"\bprep\b"):
            solve("diameter", "edge-scan")
        with pytest.raises(RectilinkError, match=r"\bgrid\b"):
            solve("diameter", ORACLE)
