"""CLI value fields on the three fixtures, byte for byte against ``golden_cli.json``.

The file holds each command's exit code and its JSON output without the
``timings`` and ``seconds`` fields, which change from run to run, or its SVG
text for ``render``, plus ``gen`` at a few seeds with holes.  The test
serialises both sides the way the CLI does, so a changed number type, key
order or value fails it.  Regenerate the file only when an output is meant to
change, from the root of a checkout::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from rectilink.cli import main
from rectilink.metrics import DIAMETER_ALGOS, ORACLE, RADIUS_ALGOS

from conftest import DONUT, LSHAPE, SQUARE

GOLDEN = Path(__file__).with_name("golden_cli.json")
FIXTURES = {"square": SQUARE, "lshape": LSHAPE, "donut": DONUT}
# point pairs per fixture: generic ones, points on slab boundaries and a pair around the donut's hole
POINTS = {
    "square": [("1,1", "9,9"), ("0.5,2", "7,9.5")],
    "lshape": [("1,9", "9,1"), ("4,4", "1.5,9.5")],
    "donut": [("1.5,2.5", "12.5,11.5"), ("2,6", "12.5,7.5"), ("7,2", "7,12")],
}


def commands(name: str):
    """The argument lists after the instance path, for one fixture."""
    yield ("decompose", "--compact")
    for kind, algos in (("diameter", DIAMETER_ALGOS), ("radius", RADIUS_ALGOS)):
        for algo in algos + (ORACLE,):
            yield (kind, "--algo", algo)
    for p, q in POINTS[name]:
        yield ("dist", "--p", p, "--q", q)
        yield ("dist", "--p", p, "--q", q, "--oracle")
    yield ("verify",)


RENDER_OPTIONS = [("--dec", "H"), ("--dec", "V"), ("--witness", "diameter"), ("--witness", "radius")]
GEN = [("gen", "--width", "8", "--height", "7", "--cells", "40", "--holes", "2", "--seed", str(s)) for s in (1, 2, 3)]


def strip(payload):
    """``payload`` without the ``timings`` and ``seconds`` fields, at any depth."""
    if isinstance(payload, dict):
        return {k: strip(v) for k, v in payload.items() if k not in ("timings", "seconds")}
    if isinstance(payload, list):
        return [strip(v) for v in payload]
    return payload


def run(argv) -> dict:
    """Exit code and output of one command: the SVG text for ``render``, else the stripped JSON."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    text = buffer.getvalue()
    return {"exit": code, "output": text if argv[0] == "render" else strip(json.loads(text))}


def outputs(directory: Path) -> dict:
    """Every command's entry, keyed by the command line with the fixture's name."""
    out = {}
    paths = {name: directory / f"{name}.json" for name in FIXTURES}
    for name, instance in FIXTURES.items():
        paths[name].write_text(json.dumps(instance))
        for command, *options in commands(name):
            out[" ".join([command, name, *options])] = run([command, str(paths[name]), *options])
    for name in FIXTURES:
        for options in RENDER_OPTIONS:
            out[" ".join(["render", name, *options])] = run(["render", str(paths[name]), *options])
    for argv in GEN:
        out[" ".join(argv)] = run(list(argv))
    return out


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    current = outputs(tmp_path)
    assert list(current) == list(golden)
    for key, entry in golden.items():
        assert json.dumps(current[key]) == json.dumps(entry), key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        GOLDEN.write_text(json.dumps(outputs(Path(directory)), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
