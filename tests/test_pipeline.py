"""The one solve path: CLI, verify and bench agree; the summary and the engine run once; typed choices."""

import json
import sys

import pytest

import rectilink.graph
import rectilink.metrics
import rectilink.pipeline
from rectilink import OutsidePointError, RectilinkError, UnknownChoiceError, domain_to_instance, run_verify, solve
from rectilink.cli import main
from rectilink.metrics import DIAMETER_ALGOS, ORACLE, RADIUS_ALGOS, compute, small_case_fallback

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
def summarize_calls(monkeypatch):
    return count_calls(monkeypatch, rectilink.graph.summarize)


ENGINES = (
    "diameter_edge_scan",
    "diameter_matmul",
    "diameter_fast",
    "radius_edge_scan",
    "radius_matmul",
    "small_case_fallback",
)


class TestComputedOnce:
    def test_summary_once_per_command(self, capsys, tmp_path, summarize_calls, donut, lshape):
        for path in write_instances(tmp_path, [donut, lshape]):
            for kind, algos in ALGOS.items():
                for algo in algos:
                    summarize_calls.clear()
                    cli_json(capsys, kind, path, "--algo", algo)
                    assert len(summarize_calls) == (0 if algo == ORACLE else 1), (path, kind, algo)
            summarize_calls.clear()
            cli_json(capsys, "verify", path)
            assert len(summarize_calls) == 1, path

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
        report = run_verify(lshape.domain, lshape.prep, lshape.grid)
        assert {e["witness_ok"] for e in report["diameter"].values()} == {None}
        assert {e["witness_ok"] for e in report["radius"].values()} == {True}
        assert report["verdict"] == "unchecked"
        assert main(["verify", path]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "unchecked"

        monkeypatch.setattr(rectilink.pipeline, "oracle_eccentricity", lambda grid, c: 0)
        assert run_verify(lshape.domain, lshape.prep, lshape.grid)["verdict"] == "disagree"
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
            lambda: compute("diameter", prep.graph, prep.dm, prep.summary, "quantum"),
            lambda: compute("radius", prep.graph, prep.dm, prep.summary, "fast"),
            lambda: compute("girth", prep.graph, prep.dm, prep.summary, "matmul"),
            lambda: small_case_fallback(prep.graph, prep.dm, "girth"),
        ]
        for call in calls:
            with pytest.raises(UnknownChoiceError) as info:
                call()
            assert isinstance(info.value, RectilinkError) and isinstance(info.value, ValueError)
