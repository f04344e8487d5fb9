"""Five sha256 digests of what the engines decide, to show that a change left every value field as it was.

Run from the root of a checkout::

    PYTHONPATH=src python tools/decision_digest.py

* ``verify``: ``run_verify``'s report on each of the test suite's 200
  corpus instances (``tests/conftest.py::corpus_domain``), without the
  ``timings`` and ``seconds`` fields (``tests/test_golden.py::strip``).
* ``decisions``: every engine's decision on the far relation of each rung of
  ``tools/stage_ladder.py``: the radius engines at ``orrad - 1`` and
  ``orrad``, the radius edge-scan with the fallback's AND cover test at the
  same two thresholds, and the diameter engines at ``ordiam``.
* ``radius``: the CLI ``radius`` command's exit code and payload, without
  ``timings``, for both engines on each corpus instance and each ladder rung.
  It runs only the CLI, so it compares what a command prints whatever the
  library inside it does.
* ``diameter``: the same for the CLI ``diameter`` command and its three
  engines, ``edge-scan``, ``matmul`` and ``fast``.
* ``oracle``: the oracle's diameter and radius payloads, through
  ``solve(kind, "oracle", grid=...)``, on the grid-40 rung, the test suite's
  dumbbell and its five medium domains (``medium_domain(101..105)``), past
  the corpus.  Each witness is the first face to attain its extreme, so this
  pins the order in which the faces are searched as well as the values.

Run it on the parent and on the change; equal digests mean equal decisions.
Each digest reads only the checkout's ``tests`` and ``tools``, and the
package on ``PYTHONPATH``, so the change's script can be run on the parent's
``src`` too.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from rectilink import build_grid, domain_to_instance, parse_domain, prepare, run_verify, solve

from stage_ladder import ENGINES, LADDER, rung_domain

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import CORPUS_SIZE, DUMBBELL, corpus_domain, medium_domain  # noqa: E402
from test_golden import run, strip  # noqa: E402


def digest(records) -> str:
    text = json.dumps(list(records), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def verify_reports():
    for k in range(CORPUS_SIZE):
        name, domain = corpus_domain(k)
        yield name, strip(run_verify(domain))


def ladder_decisions():
    for width, seed in LADDER:
        prep = prepare(rung_domain(width, seed))
        graph, levels = prep.graph, prep.levels
        orrad, ordiam = levels.extreme("radius")[0], levels.extreme("diameter")[0]
        for t in (orrad - 1, orrad):
            far = levels.far(t)
            for algo, engine in ENGINES["radius"].items():
                yield width, "radius", algo, t, engine(graph, far)
            yield width, "radius", "edge-scan-and", t, ENGINES["radius"]["edge-scan"](graph, far, np.bitwise_and)
        far = levels.far(ordiam)
        for algo, engine in ENGINES["diameter"].items():
            yield width, "diameter", algo, ordiam, engine(graph, far)


def commands(kind: str):
    """The CLI ``kind`` command's exit code and payload for each engine, on the corpus and the ladder."""
    domains = [corpus_domain(k) for k in range(CORPUS_SIZE)]
    domains += [(f"grid{width}", rung_domain(width, seed)) for width, seed in LADDER]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        for name, domain in domains:
            path.write_text(json.dumps(domain_to_instance(domain)))
            for algo in ENGINES[kind]:
                yield name, algo, run([kind, str(path), "--algo", algo])


def oracle_payloads():
    width, seed = LADDER[0]
    domains = [(f"grid{width}", rung_domain(width, seed)), ("dumbbell", parse_domain(DUMBBELL))]
    domains += [(f"medium-{seed}", medium_domain(seed)) for seed in range(101, 106)]
    for name, domain in domains:
        grid = build_grid(domain)
        for kind in ("diameter", "radius"):
            yield name, kind, solve(kind, "oracle", grid=grid).payload()


def main() -> None:
    digests = {
        "verify": verify_reports,
        "decisions": ladder_decisions,
        "radius": lambda: commands("radius"),
        "diameter": lambda: commands("diameter"),
        "oracle": oracle_payloads,
    }
    print(json.dumps({name: digest(records()) for name, records in digests.items()}))


if __name__ == "__main__":
    main()
