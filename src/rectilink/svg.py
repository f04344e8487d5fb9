"""Minimal SVG emitter for domains, decompositions and witness overlays."""

from __future__ import annotations

from .geometry import Decomposition, Domain, Point, SCALE


def _fmt(value: float) -> str:
    value = value / SCALE
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


def render_svg(
    domain: Domain,
    decomposition: Decomposition | None = None,
    points: tuple[Point, ...] = (),
) -> str:
    """SVG text showing the boundary, holes and optional overlays.

    ``points`` are marked with circles (witness pairs / centers), in internal
    (doubled) coordinates.
    """
    (xmin, ymin), (xmax, ymax) = domain.vertices.min(axis=0).tolist(), domain.vertices.max(axis=0).tolist()
    margin = max(xmax - xmin, ymax - ymin, SCALE) * 0.05 / SCALE
    width = (xmax - xmin) / SCALE + 2 * margin
    height = (ymax - ymin) / SCALE + 2 * margin
    view = f"{xmin / SCALE - margin:g} {-(ymax / SCALE + margin):g} {width:g} {height:g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" width="640">',
        '<g transform="scale(1,-1)">',
    ]
    vertices, s = domain.vertices.tolist(), domain.starts.tolist()
    subpaths = []
    for a, b in zip(s[:-1], s[1:]):
        coords = " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in vertices[a:b])
        subpaths.append(f"M {coords} Z")
    parts.append(
        f'<path class="domain" d="{" ".join(subpaths)}" fill-rule="evenodd"'
        ' fill="#dbe7f5" stroke="#1f3a5f" stroke-width="0.15"/>'
    )
    if decomposition is not None:
        for xmin, xmax, ymin, ymax in decomposition.boxes.tolist():
            parts.append(
                f'<rect class="cell" x="{_fmt(xmin)}" y="{_fmt(ymin)}"'
                f' width="{_fmt(xmax - xmin)}" height="{_fmt(ymax - ymin)}"'
                ' fill="none" stroke="#c05621" stroke-width="0.08" stroke-dasharray="0.4 0.2"/>'
            )
    for x, y in points:
        parts.append(
            f'<circle class="witness" cx="{_fmt(x)}" cy="{_fmt(y)}" r="0.3" fill="#c53030"/>'
        )
    parts.append("</g></svg>")
    return "\n".join(parts)
