"""Mobile agents: roles, lifecycle hooks, duplication, itineraries and the
job spec they run under.

An agent is a small immutable value: identity, role, a reference to its job,
and the partial result it carries as an opaque byte payload. Computation
moves by shipping agents between nodes, never by shipping raw records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Callable

from .errors import ConfigError, DuplicateVisit, RoleError

# Plain ints, range-checked only at the wire boundary.
NodeId = int
AgentId = int


class AgentRole(IntEnum):
    """Agent roles. Values double as the wire encoding."""

    MAPPER = 0
    SLAVE = 1
    REDUCER = 2


def _noop(agent: "Agent") -> None:
    return None


@dataclass
class LifecycleCallbacks:
    """The two hooks a migration fires: one on departure, one on arrival.

    There are exactly two, invoked exactly once each per migration event.
    Invocation counters are kept here so cost experiments and tests can
    observe the "two callbacks per migration" contract directly.
    """

    on_depart: Callable[["Agent"], None] = _noop
    on_arrive: Callable[["Agent"], None] = _noop
    depart_count: int = 0
    arrive_count: int = 0

    def fire_depart(self, agent: "Agent") -> None:
        self.depart_count += 1
        self.on_depart(agent)

    def fire_arrive(self, agent: "Agent") -> None:
        self.arrive_count += 1
        self.on_arrive(agent)

    @property
    def total(self) -> int:
        return self.depart_count + self.arrive_count


@dataclass(frozen=True)
class TaskDescriptor:
    """What a job runs: map/reduce function ids plus a heap record filter.

    Function ids are resolved in a per-process registry; agents carry ids,
    never code. ``input_selector`` is a key prefix; empty selects everything.
    """

    map_fn_id: str
    reduce_fn_id: str
    input_selector: bytes = b""


@dataclass(frozen=True)
class JobSpec:
    """One job submission.

    ``job_id`` must fit in u64, as the envelope carries it.
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
        if not 0 <= self.job_id < 1 << 64:
            raise ConfigError(f"job_id must fit in u64 (0 to 2**64-1), got {self.job_id}")
        if self.slave_count is not None and self.slave_count < 1:
            raise ConfigError("slave_count must be at least 1 when given")
        if self.target_nodes is not None:
            nodes = tuple(sorted(self.target_nodes))
            repeated = sorted({a for a, b in zip(nodes, nodes[1:]) if a == b})
            if repeated:
                raise ConfigError(f"target nodes {repeated} are repeated")
            object.__setattr__(self, "target_nodes", nodes)


@dataclass(frozen=True)
class Agent:
    """One mobile unit of computation."""

    id: AgentId
    role: AgentRole
    job_id: int
    payload: bytes = b""
    itinerary: tuple[NodeId, ...] = ()


class AgentIdAllocator:
    """Issues fresh agent ids, never repeating within one job run."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def next(self) -> AgentId:
        return next(self._counter)


_DEFAULT_ALLOCATOR = AgentIdAllocator(start=1_000_000)


def duplicate(mapper: Agent, n: int, ids: AgentIdAllocator | None = None) -> list[Agent]:
    """Copy a mapper into ``n`` slave agents with fresh distinct ids.

    Payload bytes are copied exactly; itineraries start empty. Pass an
    allocator to get reproducible ids within a job run.
    """
    if mapper.role is not AgentRole.MAPPER:
        raise RoleError(f"only a mapper can duplicate, got {mapper.role.name}")
    if n < 0:
        raise ValueError("cannot make a negative number of copies")
    ids = ids or _DEFAULT_ALLOCATOR
    return [
        Agent(
            id=ids.next(),
            role=AgentRole.SLAVE,
            job_id=mapper.job_id,
            payload=mapper.payload,
            itinerary=(),
        )
        for _ in range(n)
    ]


def record_visit(agent: Agent, node: NodeId) -> Agent:
    """Return the agent with ``node`` appended to its itinerary."""
    if node in agent.itinerary:
        raise DuplicateVisit(f"node {node} already visited")
    return replace(agent, itinerary=agent.itinerary + (node,))
