"""Sensor node runtime: the heap store, data ingestion, agent hosting.

Sensor networks here have no shared file system, so every node keeps its
sensed records in an in-memory heap store and agents come to the data.
Hosting an agent is strictly read-only over the heap: slaves compute and
carry results away, they never mutate what the node sensed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from .agents import Agent, AgentRole, NodeId, record_visit
from .errors import ConfigError, ExecutionError, RoleError, UnknownFunction
from .registry import FunctionRegistry, decode_partial, encode_partial


class HeapStore:
    """Ordered in-memory key -> values map standing in for a file system.

    Iteration is deterministic: ascending key, insertion order within a
    key. ``total_bytes`` is maintained on every put and always equals the
    sum of stored key+value sizes.
    """

    def __init__(self):
        self._values: dict[bytes, list[bytes]] = {}
        self._keys: list[bytes] | None = None  # sorted; None after a new key
        self.total_bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        bucket = self._values.setdefault(key, [])
        if not bucket:
            self._keys = None
        bucket.append(value)
        self.total_bytes += len(key) + len(value)

    def _sorted_keys(self) -> list[bytes]:
        if self._keys is None:
            self._keys = sorted(self._values)
        return self._keys

    def records_matching(self, selector: bytes) -> Iterator[tuple[bytes, list[bytes]]]:
        """``(key, values)`` buckets whose key starts with ``selector``
        (empty matches all)."""
        keys = self._sorted_keys()
        # Keys with the prefix are contiguous in sorted order, and cutting
        # every key to the selector's length keeps the list sorted.
        lo = bisect_left(keys, selector)
        hi = bisect_right(keys, selector, lo, key=lambda key: key[: len(selector)])
        found = keys[lo:hi]
        return zip(found, map(self._values.__getitem__, found))

    def has_match(self, selector: bytes) -> bool:
        keys = self._sorted_keys()
        i = bisect_left(keys, selector)
        return i < len(keys) and keys[i].startswith(selector)


@dataclass
class SensorNode:
    """One node: identity, heap, and its (modest) memory envelope.

    Over-limit ingestion drops records and counts them rather than
    evicting, because constrained sensors simply fill up.
    """

    id: NodeId
    heap: HeapStore = field(default_factory=HeapStore)
    mem_bytes_limit: int = 1 << 30
    dropped: int = 0

    def ingest(self, pairs: Iterable[tuple[bytes, bytes]]) -> int:
        """Append ``(key, value)`` pairs until the memory limit; returns
        how many stuck."""
        stored = 0
        for key, value in pairs:
            if self.heap.total_bytes + len(key) + len(value) <= self.mem_bytes_limit:
                self.heap.put(key, value)
                stored += 1
            else:
                self.dropped += 1
        return stored

    def is_empty(self, selector: bytes = b"") -> bool:
        return not self.heap.has_match(selector)

    def host(self, agent: Agent, registry: FunctionRegistry) -> Agent:
        """Run the agent's map task over matching heap records, in place.

        Emitted key/value pairs are folded into the agent's payload with
        the job's combine operation; a batch kernel registered for the map
        and combine replaces the per-record map calls. The heap is never
        modified. The node lands on the itinerary even when the map function
        blows up, so a tour can continue past a bad node (ExecutionError
        carries the visited agent).
        """
        if agent.role not in (AgentRole.SLAVE, AgentRole.MAPPER):
            raise RoleError(f"a {agent.role.name} agent cannot process node data")
        spec = registry.job(agent.job_id)
        map_fn = registry.resolve_map(spec.task.map_fn_id)
        combine = registry.resolve_combine(spec.combine)
        batch_map = registry.batch_map(spec.task.map_fn_id, spec.combine)

        visited = record_visit(agent, self.id)
        if not self.heap.has_match(spec.task.input_selector):
            return visited
        partial = decode_partial(agent.payload) if agent.payload else combine.identity()

        def emissions():
            buckets = self.heap.records_matching(spec.task.input_selector)
            if batch_map is not None:
                yield from batch_map(chain.from_iterable(map(itemgetter(1), buckets)))
            else:
                for key, values in buckets:
                    for value in values:
                        yield from map_fn(key, value)

        try:
            folded = combine.fold(partial, emissions())
        except UnknownFunction:
            raise
        except Exception as exc:
            raise ExecutionError(f"map function failed on node {self.id}: {exc}", agent=visited) from exc
        return replace(visited, payload=encode_partial(folded))


def load_records_tsv(path: str | Path) -> list[tuple[bytes, bytes]]:
    """Read newline-delimited ``key<TAB>value`` records as ``(key, value)``
    pairs.

    Blank lines are skipped; a line without a tab is a record with an
    empty value. A line with an empty key raises ConfigError naming the
    file and the 1-based line number.
    """
    pairs = []
    for lineno, line in enumerate(Path(path).read_bytes().split(b"\n"), 1):
        if not line:
            continue
        key, _, value = line.partition(b"\t")
        if not key:
            raise ConfigError(f"{path}, line {lineno}: empty record key")
        pairs.append((key, value))
    return pairs
