"""flowbridge: dynamic data-bridging pub/sub middleware for layered
edge/fog/cloud deployments, with a deterministic simulated network.

Services advertise and request topics through a small SDK; per-layer
flow engines turn matching advertise/request pairs into message bridges
between broker scopes, deduplicate forwarded traffic, compress large
payloads across layer boundaries, and keep inter-layer bandwidth inside
a configured budget with a two-tier rate limiter.  A config store syncs
settings outward from the most central layer, and everything runs on a
virtual clock so complete deployments simulate reproducibly.
"""

from .broker import BrokerEndpoint, SubscriberHandle
from .codec import compress, decompress
from .configstore import ConfigWorker, MainConfigService, MainConfigStore
from .flow import DedupeWindow, FlowEngine, FlowTable
from .monitor import HeartbeatRegistry, MetricsRegistry, PingProbe, export_metrics
from .ratelimit import (
    HierarchicalLimiter,
    RateLimitConfig,
    TokenBucket,
    allocate,
)
from .report import diff_runs
from .runner import World, run_scenario
from .scenario import Scenario, load_scenario
from .sdk import Advertise, ServiceHandle, ServiceHost
from .simnet import Network, SimClock
from .topology import (
    BrokerScope,
    FlowDeclaration,
    LinkSpec,
    MessageEnvelope,
    ScopeKind,
    Topology,
    build_topology,
    load_topology,
)
from .tracing import Trace

__version__ = "0.1.0"

__all__ = [
    "Advertise",
    "BrokerEndpoint",
    "BrokerScope",
    "ConfigWorker",
    "DedupeWindow",
    "FlowDeclaration",
    "FlowEngine",
    "FlowTable",
    "HeartbeatRegistry",
    "HierarchicalLimiter",
    "LinkSpec",
    "MainConfigService",
    "MainConfigStore",
    "MessageEnvelope",
    "MetricsRegistry",
    "Network",
    "PingProbe",
    "RateLimitConfig",
    "Scenario",
    "ScopeKind",
    "ServiceHandle",
    "ServiceHost",
    "SimClock",
    "SubscriberHandle",
    "TokenBucket",
    "Topology",
    "Trace",
    "World",
    "allocate",
    "build_topology",
    "compress",
    "decompress",
    "diff_runs",
    "export_metrics",
    "load_scenario",
    "load_topology",
    "run_scenario",
    "__version__",
]
