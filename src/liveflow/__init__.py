"""liveflow: a streaming maximum-flow engine.

Ingests a high-rate stream of edge additions and deletions, continuously
maintains an (s,t) max-flow with an asynchronous, shared-nothing,
vertex-centric push-relabel algorithm, and answers on-demand queries with
low latency and stable solutions.
"""

from .events import (
    StreamFormatError,
    StreamOrderError,
    TopologyEvent,
    format_event_line,
    parse_event_line,
    read_event_log,
    sliding_window_transform,
    throttle,
)
from .oracle import StaticGraph, max_flow_reference, throughflow_vertices
from .relabel import GrTunables
from .runtime import (
    Engine,
    EngineConfig,
    QueryResult,
    SimEngine,
    StreamValidityError,
    ThreadedEngine,
    create_engine,
)

__version__ = "0.1.0"

__all__ = [
    "TopologyEvent",
    "StreamFormatError",
    "StreamOrderError",
    "parse_event_line",
    "format_event_line",
    "read_event_log",
    "sliding_window_transform",
    "throttle",
    "StaticGraph",
    "max_flow_reference",
    "throughflow_vertices",
    "GrTunables",
    "Engine",
    "EngineConfig",
    "QueryResult",
    "SimEngine",
    "ThreadedEngine",
    "StreamValidityError",
    "create_engine",
    "__version__",
]
