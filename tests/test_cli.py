"""CLI surface: commands, JSON schemas, exit codes, SVG output."""

import json

import pytest

from rectilink import parse_domain, render_svg
from rectilink.cli import main

from conftest import DONUT, LSHAPE, SQUARE


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
            assert list(stages) == ["decompose", "graph", "all_pairs", "summarize"]
            assert min(stages.values()) >= 0
            assert sum(stages.values()) <= timings["prepare_seconds"]
        _, out = run(capsys, "diameter", files["donut"], "--algo", "oracle")
        assert "stage_seconds" not in json.loads(out)["timings"]

    def test_render_stdout(self, capsys, files):
        code, out = run(capsys, "render", files["square"])
        assert code == 0 and out.count('class="domain"') == 1

    def test_dist(self, capsys, files):
        code, out = run(capsys, "dist", files["square"], "--p", "1,1", "--q", "7,3")
        assert code == 0 and json.loads(out)["value"] == 2

    def test_dist_oracle_flag(self, capsys, files):
        code, out = run(capsys, "dist", files["donut"], "--p", "7,3", "--q", "7,11", "--oracle")
        assert code == 0 and json.loads(out)["value"] == 3

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
