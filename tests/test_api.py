"""The package root exports the library's API and nothing else; the README's example runs."""

import json
import re
from pathlib import Path

import rectilink

from conftest import DONUT

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "CappedLevelsError",
    "Decomposition",
    "DiameterResult",
    "DisconnectedGraphError",
    "Domain",
    "GenParams",
    "GridModel",
    "InstanceFormatError",
    "InvalidDomainError",
    "OrientedGraph",
    "OutsidePointError",
    "Prepared",
    "RadiusResult",
    "RectilinkError",
    "ResourceLimitError",
    "SCALE",
    "Solution",
    "UnknownChoiceError",
    "build_grid",
    "decompose",
    "domain_to_instance",
    "gen_domain",
    "horizontal_decomposition",
    "oracle_distance",
    "parse_domain",
    "point_distance",
    "prepare",
    "render_svg",
    "require_valid",
    "run_verify",
    "solve",
    "vertical_decomposition",
]


def test_root_exports_exactly_the_public_api():
    assert sorted(rectilink.__all__) == PUBLIC
    for name in PUBLIC:
        value = getattr(rectilink, name)
        if name.endswith("Error"):
            assert issubclass(value, rectilink.RectilinkError), name


def test_readme_library_example_runs(tmp_path, monkeypatch):
    text = README.read_text()
    library = text[text.index("\n## Library\n") :]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    for call in ("rl.decompose", "rl.point_distance", "rl.solve", "rl.oracle_distance"):
        assert call in block, call
    (tmp_path / "inst.json").write_text(json.dumps(DONUT))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
