"""CLI value fields on the three fixtures, byte for byte against ``golden_cli.json``.

The file holds each command's exit code and its JSON output without the
``timings`` and ``seconds`` fields, which change from run to run.  The test
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


def strip(payload):
    """``payload`` without the ``timings`` and ``seconds`` fields, at any depth."""
    if isinstance(payload, dict):
        return {k: strip(v) for k, v in payload.items() if k not in ("timings", "seconds")}
    if isinstance(payload, list):
        return [strip(v) for v in payload]
    return payload


def outputs(directory: Path) -> dict:
    """Exit code and stripped output of every command, keyed by the command line with the fixture's name."""
    out = {}
    for name, instance in FIXTURES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(instance))
        for command, *options in commands(name):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = main([command, str(path), *options])
            out[" ".join([command, name, *options])] = {"exit": code, "output": strip(json.loads(buffer.getvalue()))}
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
