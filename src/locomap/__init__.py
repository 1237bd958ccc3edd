"""locomap: localized MapReduce over mobile agents for sensor networks.

Instead of shipping raw sensed data to a cluster, small mobile agents
migrate to the nodes, run the map task against each node's in-memory heap
store, and carry only aggregated partials back to a reducer on the master
node. The package ships a deterministic network simulator, a real TCP
mode, cost experiments, and a CLI.
"""

import importlib

from .agents import (
    Agent,
    AgentId,
    AgentIdAllocator,
    AgentRole,
    LifecycleCallbacks,
    NodeId,
    TaskDescriptor,
    duplicate,
    record_visit,
)
from .envelope import MigrationOutcome, MigrationPhases, envelope_size, migrate, pack, unpack
from .errors import (
    AllSlavesFailed,
    BadMagic,
    ChecksumMismatch,
    ConfigError,
    ConnectRefused,
    DecodeError,
    DuplicateVisit,
    EnvelopeError,
    ExecutionError,
    FrameTooLarge,
    LocomapError,
    NoNodes,
    PayloadTooLarge,
    RoleError,
    SendTimeout,
    TopologyError,
    TransportFailure,
    Truncated,
    UnknownFunction,
    UnsupportedVersion,
)
from .nodes import HeapStore, Records, SensorNode, load_records_tsv
from .orchestration import (
    Cluster,
    JobResult,
    JobSpec,
    ResultMessage,
    RetryAction,
    RetryDecision,
    SlaveReport,
    aggregate,
    builtin_job,
    decode_result,
    dispatch,
    plan_routes,
    retry_policy,
    run_job,
    sequential_oracle,
)
from .registry import (
    BUILTIN_JOBS,
    DEFAULT_REGISTRY,
    CombineOp,
    FunctionRegistry,
    build_default_registry,
    check_combine_algebra,
    decode_partial,
    encode_partial,
)
from .transport import (
    DeliveryReport,
    LINK_PRESETS,
    SimCpuModel,
    SimLink,
    SimTransport,
    TcpTransport,
    Topology,
    sim_send,
)

__version__ = "0.1.0"

# Loaded on first use, so that a node process, which imports only
# locomap.tcp_node, loads neither the cost experiments nor the master.
_LAZY = dict.fromkeys(
    ("BaselineParams", "ComparisonReport", "CostRecord", "compare", "duplication_experiment", "hadoop_baseline", "migration_experiment", "write_cost_csv"),
    "cost",
) | {"run_tcp_job": "tcp_cluster"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
