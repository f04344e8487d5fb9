"""Rectilinear link distance, diameter and radius in rectilinear domains with holes."""

from .errors import (
    CappedLevelsError,
    DisconnectedGraphError,
    InstanceFormatError,
    InvalidDomainError,
    OutsidePointError,
    RectilinkError,
    ResourceLimitError,
    UnknownChoiceError,
)
from .generator import GenParams, gen_domain
from .geometry import (
    Decomposition,
    Domain,
    SCALE,
    domain_to_instance,
    horizontal_decomposition,
    parse_domain,
    require_valid,
    vertical_decomposition,
)
from .graph import OrientedGraph
from .metrics import DiameterResult, RadiusResult, point_distance
from .oracle import GridModel, build_grid, oracle_distance
from .pipeline import Prepared, Solution, decompose, prepare, run_verify, solve
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
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
