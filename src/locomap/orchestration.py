"""End-to-end job execution over a cluster of sensor nodes.

The choreography: the master holds one mapper and one reducer, and no
data: only the sensor nodes hold records. The mapper duplicates itself
into slaves; each slave is dispatched to a distinct starting node, tours
its contiguous slice of the node list, then returns to the reducer and
hands over its partial. The reducer folds partials with the job's
commutative combine, so arrival order cannot matter. Both engines walk
the routes ``plan_routes`` fixes up front, one ``host_and_route`` step
per node; the sim adds a modeled clock, TCP (``tcp_cluster``,
``tcp_node``) its frames and arrival reports. Both open the ledgers
with ``open_ledgers`` and hand every later event to one ``account``: the
sim reports the values the TCP master's queue holds. ``account`` turns
each into calls on the slave's ``SlaveLedger``, which also decodes the
partial a slave delivers and fails the slave there if it does not
decode; ``finish_job`` folds the decoded partials and builds the result
from the ledgers. ``raw_data_bytes`` is the targets' heap bytes in both
engines.

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
    JobSpec,
    NodeId,
    TaskDescriptor,
    duplicate,
)
from .control import Arrived, SlaveFailed
from .envelope import envelope_size, migrate
from .errors import (
    AllSlavesFailed,
    ConfigError,
    DecodeError,
    ExecutionError,
    FrameTooLarge,
    NoNodes,
    RoleError,
    TransportFailure,
)
from .nodes import SensorNode
from .registry import BUILTIN_JOBS, DEFAULT_REGISTRY, decode_partial, encode_partial
from .transport import Topology

logger = logging.getLogger("locomap.orchestration")


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


@dataclass(frozen=True)
class ResultMessage:
    """A slave's partial on its way to the reducer."""

    from_agent: AgentId
    partial: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.partial) + RESULT_HEADER.size

    def encode(self) -> bytes:
        return RESULT_HEADER.pack(self.from_agent, len(self.partial), crc32(self.partial) & 0xFFFFFFFF) + self.partial


def decode_result(data: bytes) -> ResultMessage:
    if len(data) < RESULT_HEADER.size:
        raise DecodeError("result message shorter than its header")
    agent_id, length, stated_crc = RESULT_HEADER.unpack_from(data, 0)
    partial = data[RESULT_HEADER.size:]
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
    """Exponential backoff for three attempts, then give the slave up; a
    frame over the cap is given up at once, since no retry can send it.

    Lost partials are not re-executed; the accounting makes the loss
    visible instead.
    """
    if attempt <= RETRY_MAX_ATTEMPTS and not isinstance(event, FrameTooLarge):
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
        return {**vars(self), "nodes": list(self.nodes)}


@dataclass
class SlaveLedger:
    """One slave's account, kept the same way by both engines.

    Only ``account`` and ``open_ledgers`` report events to it (and TCP's
    deadline, ``fail``): ``arrived`` for each envelope a node (or the
    master) received, then ``deliver`` or ``fail``, and ``node_exited``
    for every node that died. ``hops`` maps a hop number to the envelope
    bytes that arrived on that hop. The number is the slave's itinerary
    length when it left: 0 for the master's dispatch, then one more per
    node visited. Keying by hop makes a repeated arrival count once.
    ``holder`` is the node that reported the latest hop, so a repeat of an
    earlier one does not move it. ``deliver`` decodes the partial into
    ``partial``; a partial that does not decode fails the slave there, and
    its result message's bytes still count. A message handed over
    ``in_place``, by a slave home in its envelope or one that never left
    the master, crossed no link and counts nothing. Once the slave has
    resolved (delivered or failed) every method does nothing, so repeated
    and late events change nothing.
    """

    agent_id: AgentId
    partition: tuple[NodeId, ...]
    hops: dict[int, int] = field(default_factory=dict)
    holder: NodeId | None = None
    message: ResultMessage | None = None
    message_bytes: int = 0
    partial: Any = None
    fail_reason: str | None = None

    @property
    def resolved(self) -> bool:
        return self.message is not None or self.fail_reason is not None

    @property
    def delivered(self) -> bool:
        return self.message is not None and self.fail_reason is None

    def arrived(self, hop: int, nbytes: int, node: NodeId | None) -> None:
        if not self.resolved:
            if hop >= max(self.hops, default=0):
                self.holder = node
            self.hops[hop] = nbytes

    def deliver(self, message: ResultMessage, in_place: bool = False) -> None:
        if not self.resolved:
            self.message = message
            self.message_bytes = 0 if in_place else message.size_bytes
            try:
                self.partial = decode_partial(message.partial)
            except DecodeError as exc:
                logger.warning("slave %s failed: %s", self.agent_id, exc)
                self.fail_reason = str(exc)

    def fail(self, reason: str) -> None:
        if not self.resolved:
            self.fail_reason = reason

    def node_exited(self, node: NodeId, code: int) -> None:
        if self.holder == node:
            self.fail(f"node {node} exited with code {code} while holding the slave")

    def report(self) -> SlaveReport:
        return SlaveReport(
            agent_id=self.agent_id,
            nodes=self.partition,
            delivered=self.delivered,
            migrations=len(self.hops),
            bytes_sent=sum(self.hops.values()) + self.message_bytes,
            fail_reason=self.fail_reason,
        )


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
        """Every field, with ``slave_reports`` written as ``slaves``, by agent id."""
        doc = {**vars(self), "slaves": [r.to_json_dict() for r in sorted(self.slave_reports, key=lambda r: r.agent_id)]}
        del doc["slave_reports"]
        return doc


@dataclass
class Cluster:
    """A topology plus the live sensor node runtimes keyed by node id."""

    topology: Topology
    nodes: dict[NodeId, SensorNode] = field(default_factory=dict)

    @classmethod
    def from_topology(cls, topology: Topology, mem_bytes_limit: int = 1 << 30) -> "Cluster":
        nodes = {n: SensorNode(id=n, mem_bytes_limit=mem_bytes_limit) for n in topology.nodes}
        return cls(topology=topology, nodes=nodes)


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


def aggregate(reducer: Agent, partials: Iterable[Any], combine) -> Any:
    """Left-fold the combine over decoded partials in arrival order.

    The combine's algebra makes the outcome independent of that order.
    """
    if reducer.role is not AgentRole.REDUCER:
        raise RoleError(f"aggregation needs a reducer, got {reducer.role.name}")
    folded = combine.identity()
    for partial in partials:
        folded = combine.merge(folded, partial)
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
    reducer: Agent
    slaves: tuple[Agent, ...]
    assignment: dict[AgentId, tuple[NodeId, ...]]
    combine: Any
    reduce_fn: Callable[[Any], Any]


def plan_job(spec: JobSpec, topology: Topology) -> JobPlan:
    """Check that the job's functions resolve in ``DEFAULT_REGISTRY``,
    which planning never writes to, and that its targets exist, and split
    the targets among slaves. The first id that does not resolve, of the
    map, the reduce and the combine in that order, raises UnknownFunction,
    so a half-registered job never reaches a node.

    Without explicit ``target_nodes`` every sensor node is a target.
    """
    DEFAULT_REGISTRY.resolve_map(spec.task.map_fn_id)
    reduce_fn = DEFAULT_REGISTRY.resolve_reduce(spec.task.reduce_fn_id)
    combine = DEFAULT_REGISTRY.resolve_combine(spec.combine)
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
    mapper = Agent(id=ids.next(), role=AgentRole.MAPPER, job_id=spec.job_id)
    reducer = Agent(id=ids.next(), role=AgentRole.REDUCER, job_id=spec.job_id)
    slaves = tuple(duplicate(mapper, slave_count, ids))
    return JobPlan(master, targets, reducer, slaves, dispatch(slaves, targets), combine, reduce_fn)


def warn_dropped(dropped: dict[NodeId, int]) -> None:
    """Log each target node whose ``SensorNode.dropped`` is not 0."""
    for node, count in dropped.items():
        if count:
            logger.warning("node %s dropped %d records over its memory limit", node, count)


def finish_job(
    plan: JobPlan,
    ledgers: Iterable[SlaveLedger],
    wall_time_s: float,
    raw_data_bytes: int,
) -> JobResult:
    """Fold the delivered partials, reduce, and report every slave from
    its ledger. Raises AllSlavesFailed, carrying the result, when no slave
    delivered a partial."""
    ledgers = tuple(ledgers)
    delivered = [ledger for ledger in ledgers if ledger.delivered]
    folded = aggregate(plan.reducer, (ledger.partial for ledger in delivered), plan.combine)
    reports = tuple(ledger.report() for ledger in ledgers)
    slave_count = len(plan.slaves)
    result = JobResult(
        final=plan.reduce_fn(folded),
        partials_received=len(delivered),
        slaves_failed=slave_count - len(delivered),
        slave_count=slave_count,
        bytes_transferred_total=sum(r.bytes_sent for r in reports),
        wall_time_s=wall_time_s,
        raw_data_bytes=raw_data_bytes,
        migrations_total=sum(r.migrations for r in reports),
        slave_reports=reports,
    )
    if not delivered:
        raise AllSlavesFailed("no slave delivered a partial", result=result)
    return result


def plan_routes(assignment: dict[AgentId, tuple[NodeId, ...]], has_data: Callable[[NodeId], bool]) -> dict[AgentId, tuple[NodeId, ...]]:
    """Each slave's route: its partition's first node, then every later
    partition node with matching data; () for an empty partition. Heaps
    do not change during a job, so a route is planned once, up front."""
    return {agent: nodes[:1] + tuple(n for n in nodes[1:] if has_data(n)) for agent, nodes in assignment.items()}


def open_ledgers(plan: JobPlan, routes: dict[AgentId, tuple[NodeId, ...]]) -> dict[AgentId, SlaveLedger]:
    """One ledger per slave, in plan order. A slave with an empty route
    never leaves the master: it hands the identity partial over in place,
    and its ledger resolves here."""
    ledgers = {slave.id: SlaveLedger(slave.id, plan.assignment[slave.id]) for slave in plan.slaves}
    for slave in plan.slaves:
        if not routes[slave.id]:
            ledgers[slave.id].deliver(home_message(slave, plan.combine), in_place=True)
    return ledgers


@dataclass(frozen=True)
class NodeExited:
    """A TCP node watcher's report that it reaped node ``node``: a value on
    the master's queue that never crosses a socket."""

    node: int
    code: int


def account(ledgers: dict[AgentId, SlaveLedger], combine, event) -> None:
    """Report one event to the ledgers, the same way in both engines.

    An event is a value the TCP master's queue holds, and the sim reports
    the same values: ``Arrived`` for each hop to a node, the ``Agent``
    itself when its envelope comes home (it is at no node, and hands its
    partial to the reducer in place), a ``ResultMessage``, the only
    partial that crossed a link, ``SlaveFailed`` with the reason, and
    ``NodeExited``, which fails every slave the node holds. An event of
    any other class changes nothing.
    """
    if isinstance(event, NodeExited):
        for ledger in ledgers.values():
            ledger.node_exited(event.node, event.code)
        return
    if isinstance(event, Agent):
        agent_id = event.id
    elif isinstance(event, ResultMessage):
        agent_id = event.from_agent
    elif isinstance(event, (Arrived, SlaveFailed)):
        agent_id = event.agent_id
    else:
        return
    ledger = ledgers.get(agent_id)
    if ledger is None:
        logger.warning("frame for unknown agent %s", agent_id)
    elif isinstance(event, Agent):
        hop = len(event.itinerary)
        ledger.arrived(hop, envelope_size(len(event.payload), hop), None)
        ledger.deliver(home_message(event, combine), in_place=True)
    elif isinstance(event, ResultMessage):
        ledger.deliver(event)
    elif isinstance(event, Arrived):
        ledger.arrived(event.hop, event.bytes, event.node)
    else:
        ledger.fail(event.reason)


def host_and_route(
    node: SensorNode, agent: Agent, spec: JobSpec, route: tuple[NodeId, ...], master: NodeId, results_only: bool
) -> tuple[Agent, NodeId, ResultMessage | None]:
    """One hop step of either engine, a function of its arguments and of
    ``DEFAULT_REGISTRY``: host the agent at ``node`` under ``spec``, its
    job's spec (a failed map task is logged and the tour goes on), then
    pick the next hop: the route's node at the agent's itinerary length,
    or the master once the route is used up. Returns (agent, next hop,
    result message); the message, sent in the agent's place, is None
    unless the next hop is the master and ``results_only`` is set."""
    try:
        agent = node.host(agent, spec)
    except ExecutionError as exc:
        logger.warning("map task failed on node %s, continuing tour: %s", node.id, exc)
        agent = exc.agent
    visited = len(agent.itinerary)
    nxt = route[visited] if visited < len(route) else master
    if nxt == master and results_only:
        return agent, nxt, home_message(agent, DEFAULT_REGISTRY.resolve_combine(spec.combine))
    return agent, nxt, None


def _tour(
    slave: Agent,
    route: tuple[NodeId, ...],
    cluster: Cluster,
    transport,
    spec: JobSpec,
    results_only: bool,
    report: Callable[[Any], None],
) -> float:
    """Walk one slave along its nonempty route and home, handing ``report``
    each event as the TCP master would receive it. Returns the modeled
    time the slave finished at.
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
                t = exc.report.completed_at
            raise
        t = value.completed_at
        return value

    def backoff(seconds: float) -> None:
        nonlocal t
        t += seconds

    def send(one):
        # One send under the retry policy; a send given up fails the slave.
        value, fail = send_with_retry(lambda: attempt(one), backoff)
        if fail is not None:
            report(SlaveFailed(slave.id, spec.job_id, fail))
        return value

    agent, loc, nxt = slave, master, route[0]
    while (outcome := send(lambda at: migrate(agent, loc, nxt, transport, at=at))) is not None:
        agent, loc = outcome.agent, nxt
        if loc == master:
            report(agent)
            break
        report(Arrived(agent.id, spec.job_id, len(agent.itinerary), outcome.bytes, loc))
        agent, nxt, message = host_and_route(cluster.nodes[loc], agent, spec, route, master, results_only)
        if message is not None:
            wire = message.encode()
            if send(lambda at: transport.send(loc, master, wire, at=at)) is not None:
                report(message)
            break
    return t


def run_job(
    spec: JobSpec,
    cluster: Cluster,
    transport,
    *,
    results_only: bool = False,
) -> JobResult:
    """Execute one job end to end over a simulated transport, resolving
    its function ids in ``DEFAULT_REGISTRY`` as a TCP node does.

    ``results_only`` skips the slaves' final migration and ships only the
    result message over the last hop.
    """
    plan = plan_job(spec, cluster.topology)
    raw_bytes = sum(cluster.nodes[n].heap.total_bytes for n in plan.targets)
    warn_dropped({n: cluster.nodes[n].dropped for n in plan.targets})

    selector = spec.task.input_selector
    routes = plan_routes(plan.assignment, lambda n: not cluster.nodes[n].is_empty(selector))
    ledgers = open_ledgers(plan, routes)
    finished_at = [
        _tour(slave, routes[slave.id], cluster, transport, spec, results_only, lambda event: account(ledgers, plan.combine, event))
        for slave in plan.slaves
        if routes[slave.id]
    ]
    return finish_job(plan, ledgers.values(), max(finished_at, default=0.0), raw_bytes)


def sequential_oracle(
    task: TaskDescriptor,
    combine_id: str,
    pairs: Iterable[tuple[bytes, bytes]],
) -> Any:
    """Single-process reference over ``(key, value)`` pairs: map
    everything, fold once, reduce, with the functions of ``DEFAULT_REGISTRY``.

    This is what a run must equal whenever the combine is a commutative
    monoid, regardless of node count, slave count or arrival order.
    """
    map_fn = DEFAULT_REGISTRY.resolve_map(task.map_fn_id)
    combine = DEFAULT_REGISTRY.resolve_combine(combine_id)
    reduce_fn = DEFAULT_REGISTRY.resolve_reduce(task.reduce_fn_id)

    def emissions():
        for key, value in pairs:
            if key.startswith(task.input_selector):
                yield from map_fn(key, value)

    return reduce_fn(combine.fold(combine.identity(), emissions()))
