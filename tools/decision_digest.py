"""Two sha256 digests of what the engines decide, to show that a change left every value field as it was.

Run from the root of a checkout::

    PYTHONPATH=src python tools/decision_digest.py

* ``verify``: ``run_verify``'s report on each of the test suite's 200
  corpus instances (``tests/conftest.py::corpus_domain``), without the
  ``timings`` and ``seconds`` fields (``tests/test_golden.py::strip``).
* ``decisions``: every engine's decision on the far relation of each rung of
  ``tools/stage_ladder.py``: the radius engines at ``orrad - 1`` and
  ``orrad``, the radius edge-scan with the fallback's AND cover test at the
  same two thresholds, and the diameter engines at ``ordiam``.

Run it on the parent and on the change; equal digests mean equal decisions.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from rectilink import GenParams, gen_domain, prepare, run_verify

from stage_ladder import ENGINES, LADDER

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import CORPUS_SIZE, corpus_domain  # noqa: E402
from test_golden import strip  # noqa: E402


def digest(records) -> str:
    text = json.dumps(list(records), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def verify_reports():
    for k in range(CORPUS_SIZE):
        name, domain = corpus_domain(k)
        yield name, strip(run_verify(domain))


def ladder_decisions():
    for width, seed in LADDER:
        prep = prepare(gen_domain(GenParams(width, width, int(0.45 * width * width), holes=3, seed=seed)))
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


def main() -> None:
    print(json.dumps({"verify": digest(verify_reports()), "decisions": digest(ladder_decisions())}))


if __name__ == "__main__":
    main()
