"""Sensor node runtime: the heap store, data ingestion, agent hosting.

Sensor networks here have no shared file system, so every node keeps its
sensed records in an in-memory heap store and agents come to the data.
Hosting an agent is strictly read-only over the heap: slaves compute and
carry results away, they never mutate what the node sensed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path

from .agents import Agent, AgentRole, NodeId, record_visit
from .errors import ConfigError, ExecutionError, RoleError, UnknownFunction
from .registry import FunctionRegistry, decode_partial, encode_partial


class HeapStore:
    """Ordered in-memory ``(key, value)`` records standing in for a file system.

    Iteration is deterministic: ascending key, insertion order within a
    key. ``total_bytes`` adds up the key+value byte counts that callers
    pass to ``extend``.
    """

    def __init__(self):
        self._records: list[tuple[bytes, bytes]] = []
        self._sorted = True
        self.total_bytes = 0

    def extend(self, records: list[tuple[bytes, bytes]], nbytes: int) -> None:
        """Store ``(key, value)`` tuples as given; ``nbytes`` is their
        key+value byte count, which the caller has already summed."""
        self._records += records
        self._sorted = False
        self.total_bytes += nbytes

    def _sorted_records(self) -> list[tuple[bytes, bytes]]:
        if not self._sorted:
            # Stable and by key alone: records under one key keep insertion order.
            self._records.sort(key=itemgetter(0))
            self._sorted = True
        return self._records

    def records_matching(self, selector: bytes) -> list[tuple[bytes, bytes]]:
        """Records whose key starts with ``selector`` (empty matches all)."""
        records = self._sorted_records()
        # Keys with the prefix are contiguous in sorted order, and cutting
        # every key to the selector's length keeps the list sorted.
        lo = bisect_left(records, selector, key=itemgetter(0))
        hi = bisect_right(records, selector, lo, key=lambda record: record[0][: len(selector)])
        return records[lo:hi]

    def has_match(self, selector: bytes) -> bool:
        records = self._sorted_records()
        i = bisect_left(records, selector, key=itemgetter(0))
        return i < len(records) and records[i][0].startswith(selector)


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

    def ingest(self, pairs: list[tuple[bytes, bytes]]) -> int:
        """Store the ``(key, value)`` tuples that fit in the memory limit;
        returns how many stuck.

        A batch that fits is stored as given, the caller's own tuples, with
        no per-record Python loop. A batch over the limit keeps, in order,
        each record that still fits after those kept before it.
        """
        room = self.mem_bytes_limit - self.heap.total_bytes
        nbytes = sum(map(len, map(itemgetter(0), pairs))) + sum(map(len, map(itemgetter(1), pairs)))
        if nbytes > room:
            kept = []
            nbytes = 0
            for record in pairs:
                size = len(record[0]) + len(record[1])
                if nbytes + size <= room:
                    nbytes += size
                    kept.append(record)
            self.dropped += len(pairs) - len(kept)
            pairs = kept
        self.heap.extend(pairs, nbytes)
        return len(pairs)

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
        if agent.role is not AgentRole.SLAVE:
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
            records = self.heap.records_matching(spec.task.input_selector)
            if batch_map is not None:
                yield from batch_map(map(itemgetter(1), records))
            else:
                for key, value in records:
                    yield from map_fn(key, value)

        try:
            folded = combine.fold(partial, emissions())
        except UnknownFunction:
            raise
        except Exception as exc:
            raise ExecutionError(f"map function failed on node {self.id}: {exc}", agent=visited) from exc
        return replace(visited, payload=encode_partial(folded))


# Every byte value but tab and newline: what the loader's shape check deletes.
_NOT_TAB_OR_NEWLINE = bytes(b for b in range(256) if b not in b"\t\n")


def load_records_tsv(path: str | Path) -> list[tuple[bytes, bytes]]:
    """Read newline-delimited ``key<TAB>value`` records as ``(key, value)``
    pairs.

    Blank lines are skipped; a line without a tab is a record with an
    empty value. A line with an empty key raises ConfigError naming the
    file and the 1-based line number.
    """
    data = Path(path).read_bytes()
    if not data.endswith(b"\n"):
        data += b"\n"  # the loop skips the empty line this adds
    # A file with exactly one tab on every line and no blank line keeps
    # b"\t\n" per line once every other byte is deleted. It splits into
    # alternating keys and values in C. Any other file, or one with an
    # empty key, takes the line loop: only it handles blank lines, lines
    # without a tab and values holding tabs, and names an empty key's line.
    shape = data.translate(None, _NOT_TAB_OR_NEWLINE)
    if shape == b"\t\n" * (len(shape) // 2):
        fields = data.replace(b"\n", b"\t").split(b"\t")
        keys = fields[0:-1:2]  # the last field is the empty one after the final newline
        if all(keys):
            return list(zip(keys, fields[1::2]))
    pairs = []
    for lineno, line in enumerate(data.split(b"\n"), 1):
        if not line:
            continue
        key, _, value = line.partition(b"\t")
        if not key:
            raise ConfigError(f"{path}, line {lineno}: empty record key")
        pairs.append((key, value))
    return pairs
