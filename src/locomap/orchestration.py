"""End-to-end job execution over a cluster of sensor nodes.

The choreography: the master holds one mapper and one reducer. The mapper
duplicates itself into slaves; each slave is dispatched to a distinct
starting node, tours its contiguous slice of the node list, then returns
to the reducer and hands over its partial. The reducer folds partials
with the job's commutative combine, so arrival order cannot matter.
Both engines walk the routes ``plan_routes`` fixes up front, one
``host_and_route`` step per node; the sim adds a modeled clock, TCP
(``tcp_cluster``, ``tcp_node``) its frames and arrival reports.

Raw records never cross the network. The only wire traffic is agent
envelopes and result messages, which is the whole point.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable
from zlib import crc32

from .agents import (
    Agent,
    AgentId,
    AgentIdAllocator,
    AgentRole,
    LifecycleCallbacks,
    NodeId,
    TaskDescriptor,
    duplicate,
)
from .envelope import migrate
from .errors import (
    AllSlavesFailed,
    ConfigError,
    DecodeError,
    ExecutionError,
    NoNodes,
    RoleError,
    TransportFailure,
    VerifyFailure,
)
from .nodes import SensorNode
from .registry import BUILTIN_JOBS, DEFAULT_REGISTRY, FunctionRegistry, decode_partial, encode_partial
from .transport import Topology

logger = logging.getLogger("locomap.orchestration")


@dataclass(frozen=True)
class JobSpec:
    """One job submission.

    ``slave_count`` defaults to one slave per target node. ``combine``
    names a registered commutative monoid; that algebra is what makes the
    reducer order-independent.
    """

    job_id: int
    task: TaskDescriptor
    combine: str = "sum-by-key"
    slave_count: int | None = None
    target_nodes: tuple[NodeId, ...] | None = None

    def __post_init__(self):
        if self.slave_count is not None and self.slave_count < 1:
            raise ConfigError("slave_count must be at least 1 when given")
        if self.target_nodes is not None:
            object.__setattr__(self, "target_nodes", tuple(sorted(self.target_nodes)))


def builtin_job(
    name: str,
    job_id: int = 1,
    slave_count: int | None = None,
    target_nodes=None,
    selector: bytes = b"",
) -> JobSpec:
    try:
        map_id, reduce_id, combine = BUILTIN_JOBS[name]
    except KeyError:
        raise ConfigError(f"unknown job {name!r}; built-ins are {sorted(BUILTIN_JOBS)}") from None
    task = TaskDescriptor(map_fn_id=map_id, reduce_fn_id=reduce_id, input_selector=selector)
    return JobSpec(
        job_id=job_id,
        task=task,
        combine=combine,
        slave_count=slave_count,
        target_nodes=tuple(target_nodes) if target_nodes is not None else None,
    )


# --- result messages --------------------------------------------------------

RESULT_HEADER = struct.Struct(">QII")  # agent id, partial length, CRC-32 of partial
RESULT_HEADER_BYTES = 16


@dataclass(frozen=True)
class ResultMessage:
    """A slave's partial on its way to the reducer."""

    from_agent: AgentId
    partial: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.partial) + RESULT_HEADER_BYTES

    def encode(self) -> bytes:
        return RESULT_HEADER.pack(self.from_agent, len(self.partial), crc32(self.partial) & 0xFFFFFFFF) + self.partial


def decode_result(data: bytes) -> ResultMessage:
    if len(data) < RESULT_HEADER_BYTES:
        raise DecodeError("result message shorter than its header")
    agent_id, length, stated_crc = RESULT_HEADER.unpack_from(data, 0)
    partial = data[RESULT_HEADER_BYTES:]
    if len(partial) != length:
        raise DecodeError(f"result message declares {length} partial bytes, has {len(partial)}")
    if crc32(partial) & 0xFFFFFFFF != stated_crc:
        raise DecodeError("result message checksum mismatch")
    return ResultMessage(from_agent=agent_id, partial=partial)


# --- retry policy ------------------------------------------------------------

RETRY_BASE_S = 0.1
RETRY_FACTOR = 2.0
RETRY_MAX_ATTEMPTS = 3


class RetryAction(Enum):
    RETRY = "retry"
    MARK_FAILED = "mark_failed"


@dataclass(frozen=True)
class RetryDecision:
    action: RetryAction
    backoff_s: float = 0.0


def retry_policy(event: TransportFailure | None, attempt: int) -> RetryDecision:
    """Exponential backoff for three attempts, then give the slave up.

    Lost partials are not re-executed; the accounting makes the loss
    visible instead.
    """
    if attempt <= RETRY_MAX_ATTEMPTS:
        return RetryDecision(RetryAction.RETRY, RETRY_BASE_S * RETRY_FACTOR ** (attempt - 1))
    return RetryDecision(RetryAction.MARK_FAILED)


# --- results ------------------------------------------------------------------


@dataclass(frozen=True)
class SlaveReport:
    """Per-slave outcome, enough to audit a run after the fact."""

    agent_id: AgentId
    nodes: tuple[NodeId, ...]
    delivered: bool
    migrations: int
    bytes_sent: int
    fail_reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "nodes": list(self.nodes),
            "delivered": self.delivered,
            "migrations": self.migrations,
            "bytes_sent": self.bytes_sent,
            "fail_reason": self.fail_reason,
        }


@dataclass(frozen=True)
class JobResult:
    """What a run produced and what it cost.

    ``partials_received + slaves_failed == slave_count`` always holds,
    including runs with injected failures.
    """

    final: Any
    partials_received: int
    slaves_failed: int
    slave_count: int
    bytes_transferred_total: int
    wall_time_s: float
    raw_data_bytes: int = 0
    migrations_total: int = 0
    slave_reports: tuple[SlaveReport, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "final": self.final,
            "partials_received": self.partials_received,
            "slaves_failed": self.slaves_failed,
            "slave_count": self.slave_count,
            "bytes_transferred_total": self.bytes_transferred_total,
            "wall_time_s": self.wall_time_s,
            "raw_data_bytes": self.raw_data_bytes,
            "migrations_total": self.migrations_total,
            "slaves": [r.to_json_dict() for r in sorted(self.slave_reports, key=lambda r: r.agent_id)],
        }


@dataclass
class Cluster:
    """A topology plus the live node runtimes keyed by node id."""

    topology: Topology
    nodes: dict[NodeId, SensorNode] = field(default_factory=dict)

    @classmethod
    def from_topology(cls, topology: Topology, mem_bytes_limit: int = 1 << 30) -> "Cluster":
        nodes = {n: SensorNode(id=n, mem_bytes_limit=mem_bytes_limit) for n in topology.all_nodes}
        return cls(topology=topology, nodes=nodes)

    @property
    def raw_data_bytes(self) -> int:
        return sum(node.heap.total_bytes for node in self.nodes.values())


# --- the engine ---------------------------------------------------------------


def dispatch(slaves: list[Agent], target_nodes: Iterable[NodeId]) -> dict[AgentId, tuple[NodeId, ...]]:
    """Split target nodes among slaves: contiguous ascending ranges whose
    sizes differ by at most one. Surplus slaves get empty ranges and go
    straight to the reducer."""
    if not slaves:
        raise ValueError("dispatch requires at least one slave")
    nodes = sorted(target_nodes)
    base, extra = divmod(len(nodes), len(slaves))
    out: dict[AgentId, tuple[NodeId, ...]] = {}
    start = 0
    for i, slave in enumerate(slaves):
        size = base + (1 if i < extra else 0)
        out[slave.id] = tuple(nodes[start : start + size])
        start += size
    return out


def aggregate(
    reducer: Agent,
    messages: Iterable[ResultMessage],
    combine,
    on_decode_error: Callable[[ResultMessage, DecodeError], None] | None = None,
) -> Any:
    """Left-fold the combine over partials in arrival order.

    The combine's algebra makes the outcome independent of that order. A
    malformed partial raises DecodeError unless a handler is given, in
    which case it is skipped and reported.
    """
    if reducer.role is not AgentRole.REDUCER:
        raise RoleError(f"aggregation needs a reducer, got {reducer.role.name}")
    folded = combine.identity()
    for message in messages:
        try:
            folded = combine.merge(folded, decode_partial(message.partial))
        except DecodeError as exc:
            if on_decode_error is None:
                raise
            on_decode_error(message, exc)
    return folded


def send_with_retry(send: Callable[[], Any], wait: Callable[[float], Any]) -> tuple[Any, str | None]:
    """Run one send under the retry policy; returns (value, fail_reason).

    Every send in both engines goes through here: sim hops and result
    messages, the TCP master's registration and dispatch, and node
    forwards. ``send`` makes one attempt and raises TransportFailure to
    ask for another; ``wait(backoff_s)`` passes the backoff on the
    caller's clock, and returning False from it abandons the send.
    """
    attempt = 1
    while True:
        try:
            return send(), None
        except VerifyFailure as exc:
            return None, f"verification failed: {exc}"
        except TransportFailure as exc:
            decision = retry_policy(exc, attempt)
            if decision.action is RetryAction.MARK_FAILED:
                return None, f"gave up after {attempt} attempts: {exc}"
            if wait(decision.backoff_s) is False:
                return None, f"abandoned after {attempt} attempts: {exc}"
            attempt += 1


def home_message(agent: Agent, combine) -> ResultMessage:
    """The result message a slave hands the reducer: its partial, or the
    encoded identity when it never folded anything."""
    partial = agent.payload if agent.payload else encode_partial(combine.identity())
    return ResultMessage(from_agent=agent.id, partial=partial)


@dataclass(frozen=True)
class JobPlan:
    """Who runs a job and where: the part both engines share up front."""

    master: NodeId
    targets: tuple[NodeId, ...]
    mapper: Agent
    reducer: Agent
    slaves: tuple[Agent, ...]
    assignment: dict[AgentId, tuple[NodeId, ...]]
    combine: Any
    reduce_fn: Callable[[Any], Any]


def plan_job(spec: JobSpec, topology: Topology, registry: FunctionRegistry) -> JobPlan:
    """Register the job, check its targets, and split them among slaves.

    Without explicit ``target_nodes`` every sensor node is a target.
    """
    registry.register_job(spec)
    combine = registry.resolve_combine(spec.combine)
    reduce_fn = registry.resolve_reduce(spec.task.reduce_fn_id)
    master = topology.master
    if spec.target_nodes is not None:
        if master in spec.target_nodes:
            raise ConfigError("the master node cannot be a slave target")
        unknown = [n for n in spec.target_nodes if n not in topology.nodes]
        if unknown:
            raise ConfigError(f"target nodes {unknown} are not in the topology")
        targets = spec.target_nodes
    else:
        targets = topology.nodes
    slave_count = spec.slave_count if spec.slave_count is not None else len(targets)
    if slave_count == 0:
        raise NoNodes("no target nodes and no explicit slave count; the aggregate would be empty")

    ids = AgentIdAllocator()
    mapper = Agent(id=ids.next(), role=AgentRole.MAPPER, job_id=spec.job_id, origin=master)
    reducer = Agent(id=ids.next(), role=AgentRole.REDUCER, job_id=spec.job_id, origin=master)
    slaves = tuple(duplicate(mapper, slave_count, ids))
    return JobPlan(master, targets, mapper, reducer, slaves, dispatch(slaves, targets), combine, reduce_fn)


def finish_job(
    plan: JobPlan,
    reports: Iterable[SlaveReport],
    messages: list[ResultMessage],
    wall_time_s: float,
    raw_data_bytes: int,
    extra_partial: Any = None,
) -> JobResult:
    """Fold the delivered partials, reduce, and account for every slave.

    ``extra_partial`` is folded in outside the slave accounting (the
    mapper's pass over the master heap). Raises AllSlavesFailed, carrying
    the result, when no partial could be used.
    """
    decode_failures = 0

    def on_bad(message, exc):
        nonlocal decode_failures
        decode_failures += 1
        logger.warning("discarding malformed partial from agent %s: %s", message.from_agent, exc)

    folded = aggregate(plan.reducer, messages, plan.combine, on_decode_error=on_bad)
    if extra_partial is not None:
        folded = plan.combine.merge(folded, extra_partial)
    reports = tuple(reports)
    slave_count = len(plan.slaves)
    partials_received = len(messages) - decode_failures
    result = JobResult(
        final=plan.reduce_fn(folded),
        partials_received=partials_received,
        slaves_failed=slave_count - partials_received,
        slave_count=slave_count,
        bytes_transferred_total=sum(r.bytes_sent for r in reports),
        wall_time_s=wall_time_s,
        raw_data_bytes=raw_data_bytes,
        migrations_total=sum(r.migrations for r in reports),
        slave_reports=reports,
    )
    if partials_received == 0:
        raise AllSlavesFailed("no slave delivered a partial", result=result)
    return result


def plan_routes(assignment: dict[AgentId, tuple[NodeId, ...]], has_data: Callable[[NodeId], bool]) -> dict[AgentId, tuple[NodeId, ...]]:
    """Each slave's route: its partition's first node, then every later
    partition node with matching data; () for an empty partition. Heaps
    do not change during a job, so a route is planned once, up front."""
    return {agent: nodes[:1] + tuple(n for n in nodes[1:] if has_data(n)) for agent, nodes in assignment.items()}


def host_and_route(
    node: SensorNode, agent: Agent, registry: FunctionRegistry, route: tuple[NodeId, ...], master: NodeId, results_only: bool
) -> tuple[Agent, NodeId, ResultMessage | None]:
    """One hop step of either engine: host the agent at ``node`` (a failed
    map task is logged and the tour goes on), then pick the next hop: the
    route's node at the agent's itinerary length, or the master once the
    route is used up. Returns (agent, next hop, result message); the
    message, sent in the agent's place, is None unless the next hop is the
    master and ``results_only`` is set."""
    try:
        agent = node.host(agent, registry)
    except ExecutionError as exc:
        logger.warning("map task failed on node %s, continuing tour: %s", node.id, exc)
        agent = exc.agent
    visited = len(agent.itinerary)
    nxt = route[visited] if visited < len(route) else master
    if nxt == master and results_only:
        combine = registry.resolve_combine(registry.job(agent.job_id).combine)
        return agent, nxt, home_message(agent, combine)
    return agent, nxt, None


def _tour(
    slave: Agent,
    partition: tuple[NodeId, ...],
    route: tuple[NodeId, ...],
    cluster: Cluster,
    transport,
    registry: FunctionRegistry,
    combine,
    callbacks: LifecycleCallbacks,
    results_only: bool,
) -> tuple[SlaveReport, ResultMessage | None, float]:
    """Walk one slave along its route and deliver its partial.

    Returns the slave's report, its result message (None if it failed)
    and the modeled time it finished at.
    """
    master = cluster.topology.master
    t = 0.0

    def attempt(send):
        # One send at the slave's modeled clock. A failed attempt still
        # used the link until its report completed.
        nonlocal t
        try:
            value = send(t)
        except TransportFailure as exc:
            if exc.report is not None:
                t = max(t, exc.report.completed_at)
            raise
        t = value.completed_at
        return value

    def backoff(seconds: float) -> None:
        nonlocal t
        t += seconds

    agent = slave
    loc = master
    migrations = 0
    bytes_sent = 0
    fail = None
    message = None

    if route:
        nxt = route[0]
        while True:
            outcome, fail = send_with_retry(
                lambda: attempt(lambda at: migrate(agent, loc, nxt, transport, callbacks, at=at)), backoff
            )
            if fail is not None:
                break
            agent, loc = outcome.agent, nxt
            migrations += 1
            bytes_sent += outcome.bytes
            if loc == master:
                break
            agent, nxt, message = host_and_route(cluster.nodes[loc], agent, registry, route, master, results_only)
            if message is not None:
                break

    if fail is None:
        if message is None:
            message = home_message(agent, combine)
        if loc != master:
            wire = message.encode()

            def send_result(at):
                report = transport.send(loc, master, wire, at=at)
                if not report.delivered:
                    raise TransportFailure(f"result message dropped on {loc}->{master}", report=report)
                return report

            _, fail = send_with_retry(lambda: attempt(send_result), backoff)
    if fail is None:
        bytes_sent += message.size_bytes
    else:
        message = None

    report = SlaveReport(
        agent_id=slave.id,
        nodes=partition,
        delivered=message is not None,
        migrations=migrations,
        bytes_sent=bytes_sent,
        fail_reason=fail,
    )
    return report, message, t


def run_job(
    spec: JobSpec,
    cluster: Cluster,
    transport,
    *,
    registry: FunctionRegistry | None = None,
    results_only: bool = False,
    process_master_heap: bool = False,
    callbacks: LifecycleCallbacks | None = None,
) -> JobResult:
    """Execute one job end to end over a simulated transport.

    ``results_only`` skips the slaves' final migration and ships only the
    result message over the last hop. ``process_master_heap`` additionally
    lets the mapper fold the master node's own heap into the final result,
    outside the slave accounting.
    """
    registry = registry or DEFAULT_REGISTRY
    plan = plan_job(spec, cluster.topology, registry)
    callbacks = callbacks if callbacks is not None else LifecycleCallbacks()
    raw_bytes = cluster.raw_data_bytes

    mapper_partial = None
    if process_master_heap and plan.master in cluster.nodes:
        try:
            mapper = cluster.nodes[plan.master].host(plan.mapper, registry)
            if mapper.payload:
                mapper_partial = decode_partial(mapper.payload)
        except ExecutionError as exc:
            logger.warning("mapper could not process the master heap: %s", exc)

    selector = spec.task.input_selector
    routes = plan_routes(plan.assignment, lambda n: not cluster.nodes[n].is_empty(selector))
    tours = [
        _tour(slave, plan.assignment[slave.id], routes[slave.id], cluster, transport, registry, plan.combine, callbacks, results_only)
        for slave in plan.slaves
    ]
    reports, messages, finished_at = zip(*tours)
    delivered = [m for m in messages if m is not None]
    return finish_job(plan, reports, delivered, max(finished_at), raw_bytes, extra_partial=mapper_partial)


def sequential_oracle(
    task: TaskDescriptor,
    combine_id: str,
    pairs: Iterable[tuple[bytes, bytes]],
    registry: FunctionRegistry | None = None,
) -> Any:
    """Single-process reference over ``(key, value)`` pairs: map
    everything, fold once, reduce.

    This is what a run must equal whenever the combine is a commutative
    monoid, regardless of node count, slave count or arrival order.
    """
    registry = registry or DEFAULT_REGISTRY
    map_fn = registry.resolve_map(task.map_fn_id)
    combine = registry.resolve_combine(combine_id)
    reduce_fn = registry.resolve_reduce(task.reduce_fn_id)

    def emissions():
        for key, value in pairs:
            if key.startswith(task.input_selector):
                yield from map_fn(key, value)

    return reduce_fn(combine.fold(combine.identity(), emissions()))
