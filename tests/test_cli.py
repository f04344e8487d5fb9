"""CLI surface: commands, JSON schemas, exit codes, SVG output."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rectilink
from rectilink import GenParams, decompose, domain_to_instance, gen_domain, geometry, parse_domain, render_svg
from rectilink.cli import _build_parser, main
from rectilink.graph import all_pairs
from rectilink.metrics import DIAMETER_ALGOS, ORACLE, RADIUS_ALGOS

from conftest import DONUT, LSHAPE, SQUARE, corpus_domain, grid120_domain


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, inst in [("square", SQUARE), ("lshape", LSHAPE), ("donut", DONUT)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(inst))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRenderSvg:
    def test_square_plain(self):
        text = render_svg(parse_domain(SQUARE))
        assert text.count('class="domain"') == 1
        assert 'class="cell"' not in text

    def test_donut_with_decomposition(self, donut):
        text = render_svg(donut.domain, decomposition=donut.prep.hdec)
        assert text.count('class="cell"') == 4

    def test_donut_with_witness_points(self, donut):
        text = render_svg(donut.domain, points=((6, 14), (22, 14)))
        assert text.count('class="witness"') == 2


class TestCommands:
    def test_diameter_fast(self, capsys, files):
        code, out = run(capsys, "diameter", files["donut"], "--algo", "fast")
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == 3
        assert payload["engine"] == "fast"
        assert payload["witness"]["pair"] == [[3, 7], [11, 7]]
        assert payload["routed_to_fallback"] is False

    def test_diameter_routed(self, capsys, files):
        code, out = run(capsys, "diameter", files["square"], "--algo", "matmul")
        payload = json.loads(out)
        assert code == 0 and payload["value"] == 2
        assert payload["engine"] == "fallback" and payload["routed_to_fallback"] is True
        assert payload["requested_algo"] == "matmul"

    def test_radius_oracle(self, capsys, files):
        code, out = run(capsys, "radius", files["donut"], "--algo", "oracle")
        payload = json.loads(out)
        assert code == 0 and payload["value"] == 2 and payload["engine"] == "oracle"

    def test_diameter_oracle(self, capsys, files):
        code, out = run(capsys, "diameter", files["donut"], "--algo", "oracle")
        payload = json.loads(out)
        assert code == 0 and payload["value"] == 3 and payload["engine"] == "oracle"

    def test_stage_seconds(self, capsys, files):
        for kind in ("diameter", "radius"):
            _, out = run(capsys, kind, files["donut"])
            timings = json.loads(out)["timings"]
            stages = timings["stage_seconds"]
            assert list(stages) == ["decompose", "graph", "all_pairs"]
            assert min(stages.values()) >= 0
            assert sum(stages.values()) == timings["prepare_seconds"]
        _, out = run(capsys, "diameter", files["donut"], "--algo", "oracle")
        assert "stage_seconds" not in json.loads(out)["timings"]

    @pytest.mark.parametrize("name", ["corpus", "grid120"])
    def test_counters(self, capsys, tmp_path, name):
        """``timings.counters`` states the search ``all_pairs`` ran for the command; the radius search stops, the
        diameter's runs to the last level.  The oracle runs no search and has no counters (on the corpus instance
        alone: on grid 120 it takes most of a minute)."""
        domain = corpus_domain(0)[1] if name == "corpus" else grid120_domain()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(domain_to_instance(domain)))
        graph = decompose(domain)[2]
        for kind in ("diameter", "radius"):
            _, out = run(capsys, kind, str(path))
            counters = json.loads(out)["timings"]["counters"]
            levels = all_pairs(graph, kind)
            assert counters == {
                "search": levels.search,
                "level_bound": levels.bound,
                "planes": len(levels.planes),
                "skipped_targets": levels.skipped,
                "stop_level": None if levels.cap is None else levels.cap - 1,
                "sources": levels.sources,
                "rounds": levels.rounds,
            }
            assert counters["search"] == "level"
            assert (counters["stop_level"] is None) == (kind == "diameter")
            if name == "corpus":
                _, out = run(capsys, kind, str(path), "--algo", "oracle")
                assert "counters" not in json.loads(out)["timings"]

    def test_render_stdout(self, capsys, files):
        code, out = run(capsys, "render", files["square"])
        assert code == 0 and out.count('class="domain"') == 1

    def test_dist(self, capsys, files):
        code, out = run(capsys, "dist", files["square"], "--p", "1,1", "--q", "7,3")
        assert code == 0 and json.loads(out)["value"] == 2

    def test_dist_oracle_flag(self, capsys, files):
        code, out = run(capsys, "dist", files["donut"], "--p", "7,3", "--q", "7,11", "--oracle")
        assert code == 0 and json.loads(out)["value"] == 3

    def test_dist_negative_x(self, capsys, tmp_path):
        """A negative X needs the ``--p=X,Y`` form: argparse reads ``--p -3.5,2`` as an option."""
        path = tmp_path / "west.json"
        path.write_text(json.dumps({"outer": [[-10, 0], [0, 0], [0, 10], [-10, 10]]}))
        code, out = run(capsys, "dist", str(path), "--p=-3.5,2", "--q=-1,7")
        assert code == 0 and json.loads(out) == {"value": 2, "p": [-3.5, 2], "q": [-1, 7], "engine": "formula"}
        with pytest.raises(SystemExit) as exc:
            main(["dist", str(path), "--p", "-3.5,2", "--q=-1,7"])
        assert exc.value.code == 2

    def test_dist_half_units(self, capsys, files):
        code, out = run(capsys, "dist", files["square"], "--p", "0.5,0.5", "--q", "0.5,7")
        assert code == 0 and json.loads(out)["value"] == 1

    def test_decompose_schema(self, capsys, files):
        code, out = run(capsys, "decompose", files["donut"])
        payload = json.loads(out)
        assert code == 0
        assert payload["n"] == 8 and payload["h"] == 1
        assert payload["m"] == 8 and payload["chi"] == 8
        assert payload["ordiam"] == 5 and payload["orrad"] == 4
        assert payload["approx_diameter"] == 4 and payload["approx_radius"] == 3
        assert len(payload["rects"]) == 8 and len(payload["adjacency"]) == 8

    def test_verify_ok(self, capsys, files):
        code, out = run(capsys, "verify", files["lshape"])
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "ok"
        assert {e["value"] for e in payload["diameter"].values()} == {2}
        assert {e["value"] for e in payload["radius"].values()} == {2}

    def test_verify_disagreement_exit_code(self, capsys, files, monkeypatch):
        import rectilink.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_verify", lambda domain: {"verdict": "disagree"})
        code, _ = run(capsys, "verify", files["square"])
        assert code == 2

    def test_gen_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "inst.json"
        code, out = run(
            capsys, "gen", "--width", "6", "--height", "5", "--cells", "20",
            "--holes", "1", "--seed", "3", "--out", str(out_file),
        )
        assert code == 0
        stats = json.loads(out)
        domain = parse_domain(out_file.read_text())
        assert domain.n == stats["n"] and domain.h == 1

    def test_gen_deterministic_bytes(self, capsys):
        _, out1 = run(capsys, "gen", "--width", "5", "--height", "5", "--cells", "15", "--seed", "8")
        _, out2 = run(capsys, "gen", "--width", "5", "--height", "5", "--cells", "15", "--seed", "8")
        assert out1 == out2

    def test_bench_csv(self, capsys, files):
        code, out = run(capsys, "bench", files["donut"], files["lshape"], "--reps", "2")
        assert code == 0
        lines = [line for line in out.strip().splitlines() if line]
        header = lines[0].split(",")
        assert "chi" in header and "m" in header
        assert "diameter_fast_seconds" in header and "diameter_matmul_seconds" in header
        assert len(lines) == 3  # header + one row per instance

    def test_render_file(self, capsys, files, tmp_path):
        out_file = tmp_path / "donut.svg"
        code, _ = run(capsys, "render", files["donut"], "--dec", "H", "--witness", "diameter",
                      "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.count('class="cell"') == 4 and text.count('class="witness"') == 2


class TestErrors:
    def test_missing_file(self, capsys):
        code = main(["diameter", "/nonexistent/file.json"])
        err = capsys.readouterr().err
        assert code == 1 and "error:" in err

    def test_invalid_domain_message_surfaced(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"outer": [[0, 0], [5, 0], [10, 0], [10, 10], [0, 10]]}))
        code = main(["diameter", str(bad)])
        err = capsys.readouterr().err
        assert code == 1 and "alternation" in err

    def test_bad_point(self, capsys, files):
        code = main(["dist", files["square"], "--p", "1;1", "--q", "2,2"])
        assert code == 1

    def test_outside_point(self, capsys, files):
        code = main(["dist", files["square"], "--p=-5,1", "--q", "2,2"])
        assert code == 1

    def test_unknown_engine_bench(self, capsys, files):
        code = main(["bench", files["square"], "--engines", "warp"])
        assert code == 1

    def assert_clean_failure(self, capsys, argv):
        code = main(argv)  # an uncaught exception would fail the test here
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"outer": [[0, 0], [1, 0], [1, 1], [0, 1]], "name": "\xe9"}')
        self.assert_clean_failure(capsys, ["diameter", str(bad)])

    def test_holes_not_a_list(self, capsys, tmp_path):
        bad = tmp_path / "holes.json"
        bad.write_text(json.dumps({"outer": SQUARE["outer"], "holes": 5}))
        self.assert_clean_failure(capsys, ["diameter", str(bad)])

    def test_bench_reps_below_one(self, capsys, files):
        for reps in ("0", "-1"):
            self.assert_clean_failure(capsys, ["bench", files["donut"], "--reps", reps])

    def assert_one_error_line(self, capsys, argv) -> str:
        """Exit 1 and exactly one stderr line, an ``error:`` line; returns that line."""
        code = main(argv)  # an uncaught exception would fail the test here
        lines = capsys.readouterr().err.splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in lines[0]
        return lines[0]

    def test_deep_document(self, capsys, tmp_path):
        """Nesting too deep for the JSON decoder is a format error, not a RecursionError."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        assert self.assert_one_error_line(capsys, ["diameter", str(deep)]).startswith("error: invalid JSON: ")

    @pytest.mark.parametrize("point", ["1e100000,1", "1e1000000000,1", "1e-1000000000,1"])
    def test_point_past_limit(self, capsys, files, point):
        """A coordinate too large or too fine is refused as a bad point, without expanding its exponent."""
        line = self.assert_one_error_line(capsys, ["dist", files["square"], "--p", point, "--q", "1,1"])
        assert line.startswith(f"error: bad point {point!r}: ")

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_outside_point_in_input_units(self, capsys, files, oracle):
        """The formula and the oracle print an outside point as it was given, not in doubled units."""
        line = self.assert_one_error_line(capsys, ["dist", files["square"], "--p", "1,1", "--q", "11.5,12", *oracle])
        assert line == "error: point (11.5, 12) lies outside the domain"

    def test_memory_error(self, capsys, files, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(rectilink.cli, "prepare", exhausted)
        assert self.assert_one_error_line(capsys, ["radius", files["donut"]]) == "error: out of memory"

    def test_integer_literal_past_digit_limit(self, capsys, tmp_path):
        """A 5001-digit integer literal is a format error, not the decoder's ValueError."""
        doc = tmp_path / "huge.json"
        doc.write_text('{"outer": [[0, 0], [1' + "0" * 5000 + ", 0], [1, 1], [0, 1]]}")
        line = self.assert_one_error_line(capsys, ["diameter", str(doc)])
        assert line.startswith("error: invalid JSON: ") and len(line) < 200

    @pytest.mark.parametrize("fault", ["deep point", "long string point", "long string holes"])
    def test_offending_value_echo_bounded(self, capsys, tmp_path, fault):
        """An offending value is echoed to 80 characters and an ellipsis, however deep or long it is."""
        deep = [0]
        for _ in range(900):
            deep = [deep]
        outer, pairs = [[0, 0], [1, 0], [1, 1]], "error: outer: points must be [int, int] pairs, got "
        instance, prefix = {
            "deep point": ({"outer": outer + [deep]}, pairs + "[[[["),
            "long string point": ({"outer": outer + ["x" * 10**6]}, pairs + "'xx"),
            "long string holes": ({"outer": SQUARE["outer"], "holes": "h" * 10**6}, 'error: "holes" must be a list'),
        }[fault]
        doc = tmp_path / "fault.json"
        doc.write_text(json.dumps(instance))
        line = self.assert_one_error_line(capsys, ["diameter", str(doc)])
        head = line.split(" got ")[0] + " got "
        assert line.startswith(prefix) and line.endswith("…") and len(line) == len(head) + 81

    def test_bench_no_engine(self, capsys, files):
        for engines in ("", ",", " , "):
            self.assert_clean_failure(capsys, ["bench", files["donut"], "--engines", engines])
        assert main(["bench", files["donut"], "--engines", ","]) == 1
        assert "names no engine (choose from edge-scan, matmul, fast)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "render"])
    def test_out_into_missing_directory(self, capsys, files, tmp_path, command):
        out = tmp_path / "missing" / "out.txt"
        argv = {
            "gen": ["gen", "--width", "6", "--height", "6", "--cells", "20", "--out", str(out)],
            "render": ["render", files["donut"], "--out", str(out)],
        }[command]
        self.assert_clean_failure(capsys, argv)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert not out.parent.exists()


# Documents: any JSON value, NaN, Infinity and ints past int64 included, or an object whose rings are short
# lists of small integer pairs (mostly unclosed or diagonal), or nesting deeper than the decoder's recursion.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
_KEYS = st.sampled_from(["outer", "holes", "x"])
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=2),
    max_leaves=12,
)
_RING = st.lists(st.lists(st.integers(min_value=-2, max_value=12), min_size=2, max_size=2), max_size=7)
_DOCUMENTS = st.one_of(
    _VALUES.map(json.dumps),
    st.fixed_dictionaries(
        {"outer": _RING | _VALUES}, optional={"holes": st.lists(_RING, max_size=2) | _VALUES}
    ).map(json.dumps),
    st.integers(min_value=1, max_value=5000).map(lambda depth: '{"outer": ' + "[" * depth + "]" * depth + "}"),
)
# Point coordinates: non-finite, undefined, past the coordinate bound or too fine, or any short text.
_NUMBERS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1/0", "0/0", "1e999999999", "1e-999999999", "1_0", "0x1"]),
    st.integers(min_value=-(2**80), max_value=2**80).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.decimals(allow_nan=True, allow_infinity=True).map(str),
    st.fractions().map(str),
    st.text(max_size=8),
)
_POINTS = st.one_of(st.tuples(_NUMBERS, _NUMBERS).map(",".join), _NUMBERS)


def assert_clean_exit(argv) -> None:
    """``main`` returns or exits without a traceback: exit 0 with nothing on stderr, exit 1 with one ``error:``
    line, or argparse's exit 2 with its usage and one ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)  # any other exception fails the test with its traceback
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert not any("Traceback" in line for line in lines), lines
    if code == 0:
        assert lines == [], lines
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert code == 2 and sum("error:" in line for line in lines) == 1 and lines[0].startswith("usage:"), lines


class TestFuzz:
    """Hostile documents and point arguments through ``main``, in-process: never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz")
        (path / "square.json").write_text(json.dumps(SQUARE))
        return path

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=_DOCUMENTS, command=st.sampled_from(["decompose", "diameter", "radius", "render"]))
    def test_documents(self, workdir, text, command):
        path = workdir / "doc.json"
        path.write_text(text)
        assert_clean_exit([command, str(path)])

    @settings(max_examples=150, deadline=None)
    @given(p=_POINTS, q=_POINTS, attached=st.booleans(), oracle=st.booleans())
    def test_points(self, workdir, p, q, attached, oracle):
        points = [f"--p={p}", f"--q={q}"] if attached else ["--p", p, "--q", q]
        assert_clean_exit(["dist", str(workdir / "square.json"), *points] + ["--oracle"] * oracle)


def _python(*args, **kwargs) -> subprocess.Popen:
    """A fresh interpreter that imports the package from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(rectilink.__file__).parents[1]), env.get("PYTHONPATH", "")])
    return subprocess.Popen([sys.executable, *args], env=env, stderr=subprocess.PIPE, **kwargs)


class TestProcess:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--width", "8", "--height", "8", "--cells", "30", "--seed", "1"],
            ["dist", "donut", "--p", "7,3", "--q", "7,11"],
            ["render", "donut"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_reader(self, files, argv):
        """A reader that closes the pipe at once ends the command with exit 1 and no traceback."""
        argv = [files.get(arg, arg) for arg in argv]
        proc = _python("-m", "rectilink.cli", *argv, stdout=subprocess.PIPE)
        proc.stdout.close()  # long before the command, still importing, writes
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err, err

    def test_import_leaves_out_ndimage(self):
        """``scipy.ndimage`` costs import time and memory on every command; the CLI needs none of it."""
        proc = _python("-c", "import sys, rectilink.cli; print('scipy.ndimage' in sys.modules)", stdout=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert out.decode().strip() == "False"


class TestByteStability:
    def test_decompose_stable(self, capsys, files):
        _, out1 = run(capsys, "decompose", files["donut"])
        _, out2 = run(capsys, "decompose", files["donut"])
        assert out1 == out2

    def test_diameter_stable_outside_timings(self, capsys, files):
        _, out1 = run(capsys, "diameter", files["donut"], "--algo", "edge-scan")
        _, out2 = run(capsys, "diameter", files["donut"], "--algo", "edge-scan")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timings"), b.pop("timings")
        assert a == b

    def test_parser_reused_across_calls(self, capsys, files):
        """One parser per process: repeated commands print the same, and a bad argument still exits 2."""
        _, dist1 = run(capsys, "dist", files["donut"], "--p", "3,3", "--q", "11,11")
        _, decompose1 = run(capsys, "decompose", files["donut"], "--compact")
        with pytest.raises(SystemExit) as exc:
            main(["radius", files["donut"], "--algo", "fast"])
        assert exc.value.code == 2
        _, dist2 = run(capsys, "dist", files["donut"], "--p", "3,3", "--q", "11,11")
        _, decompose2 = run(capsys, "decompose", files["donut"], "--compact")
        assert (dist1, decompose1) == (dist2, decompose2)
        assert _build_parser() is _build_parser()


def count_rects(monkeypatch) -> list:
    """Count every :class:`~rectilink.geometry.Rect` built from now on, through each package module naming the class."""
    built = []

    class CountingRect(geometry.Rect):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "rectilink" and getattr(module, "Rect", None) is geometry.Rect:
            monkeypatch.setattr(module, "Rect", CountingRect)
    return built


class TestNoRectOnSolvePath:
    """The rectangles stay box arrays from the sweep to the engines: the solve commands build no Rect."""

    @pytest.mark.parametrize("name", ["donut", "grid40"])
    def test_no_rect_built(self, capsys, monkeypatch, tmp_path, name):
        if name == "donut":
            instance = DONUT
        else:
            instance = domain_to_instance(gen_domain(GenParams(40, 40, 720, holes=3, seed=1000)))
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        hdec = geometry.horizontal_decomposition(parse_domain(instance))
        # p and q: the centres of the first and the last horizontal rectangle, in input units
        p, q = (f"{(x0 + x1) / 4:g},{(y0 + y1) / 4:g}" for x0, x1, y0, y1 in hdec.boxes[[0, -1]].tolist())
        commands = [("diameter", "--algo", algo) for algo in (*DIAMETER_ALGOS, ORACLE)]
        commands += [("radius", "--algo", algo) for algo in (*RADIUS_ALGOS, ORACLE)]
        commands += [("dist", "--p", p, "--q", q), ("dist", "--p", p, "--q", q, "--oracle"), ("verify",)]
        built = count_rects(monkeypatch)
        for command, *options in commands:
            assert main([command, str(path), *options]) == 0, command
            assert json.loads(capsys.readouterr().out)
            assert built == [], (command, options)
        assert len(hdec.rects) == len(built) > 0  # the counter sees the one reader that builds them
