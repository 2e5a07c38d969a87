"""Concealed hop-by-hop aggregation for sensor networks.

End-to-end concealed readings, exact SUM/MEAN recovery at the base station,
constant-time integrity verdicts, and tree-walking attestation that pins
misbehaving aggregators, together with a deterministic simulator for
experimenting with adversarial scenarios.
"""

from .basestation import (
    AttestationReport,
    BaseStation,
    IpetVerdict,
    QueryResult,
    format_report_line,
)
from .crypto import FixedPointCodec, SeedState, diffuse, undiffuse
from .errors import (
    AuthFailure,
    DisconnectedGraph,
    ProtocolError,
    ReadingOutOfRange,
    ScenarioInvalid,
)
from .node import SensorNode
from .adversary import CompromiseSpec
from .simulator import Metrics, ScalingRow, Scenario, World, measure_scaling
from .topology import Tree, build_tree, provision

__version__ = "0.1.0"

__all__ = [
    "AttestationReport",
    "AuthFailure",
    "BaseStation",
    "CompromiseSpec",
    "DisconnectedGraph",
    "FixedPointCodec",
    "IpetVerdict",
    "Metrics",
    "ProtocolError",
    "QueryResult",
    "ReadingOutOfRange",
    "ScalingRow",
    "Scenario",
    "ScenarioInvalid",
    "SeedState",
    "SensorNode",
    "Tree",
    "World",
    "build_tree",
    "diffuse",
    "format_report_line",
    "measure_scaling",
    "provision",
    "undiffuse",
    "__version__",
]
