"""Sensor node runtime: the heap store, data ingestion, agent hosting.

Sensor networks here have no shared file system, so every node keeps its
sensed records in an in-memory heap store and agents come to the data.
The loader hands a node its file as key and value columns with their byte
count, so ingestion builds no object per record. Hosting an agent is
strictly read-only over the heap: slaves compute and carry results away,
they never mutate what the node sensed.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path

from .agents import Agent, AgentRole, NodeId, record_visit
from .errors import ConfigError, ExecutionError, RoleError, UnknownFunction
from .registry import DEFAULT_REGISTRY, decode_partial, encode_partial


@dataclass
class Records:
    """Records as parallel ``keys`` and ``values`` lists, and ``nbytes``,
    their key+value byte count. Iterates as ``(key, value)`` pairs."""

    keys: list[bytes]
    values: list[bytes]
    nbytes: int

    @classmethod
    def of(cls, pairs: list[tuple[bytes, bytes]]) -> Records:
        keys, values = list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))
        return cls(keys, values, sum(map(len, keys)) + sum(map(len, values)))

    def __iter__(self):
        return zip(self.keys, self.values)


class HeapStore:
    """Ordered in-memory records standing in for a file system: two
    parallel lists, ``keys`` and ``values``.

    The first scan after an extend (``records_matching``, or ``has_match``
    of a non-empty selector) sorts both in place by key alone, stably, so
    scans see ascending keys, insertion order within a key.
    ``total_bytes`` adds up the ``nbytes`` of every extend.
    """

    def __init__(self):
        self.keys: list[bytes] = []
        self.values: list[bytes] = []
        self._sorted = True
        self.total_bytes = 0

    def extend(self, records: Records) -> None:
        """Append the records' key and value objects as they are, into new
        lists: a scan handed out earlier keeps reading the old ones."""
        self.keys = self.keys + records.keys
        self.values = self.values + records.values
        self._sorted = False
        self.total_bytes += records.nbytes

    def _sort(self) -> list[bytes]:
        if not self._sorted:
            # Stable and by key alone: records under one key keep insertion
            # order. list.sort calls the key function once per item, in order,
            # so each value takes its key from an iterator over the keys.
            self.values.sort(key=functools.partial(next, iter(self.keys)))
            self.keys.sort()
            self._sorted = True
        return self.keys

    def records_matching(self, selector: bytes):
        """``(key, value)`` pairs whose key starts with ``selector`` (empty matches all)."""
        keys = self._sort()
        # Keys with the prefix are contiguous in sorted order, and cutting
        # every key to the selector's length keeps the list sorted.
        lo = bisect_left(keys, selector)
        hi = bisect_right(keys, selector, lo, key=lambda key: key[: len(selector)])
        if hi - lo == len(keys):
            # Every record: no copy needed, as only the sort, before any scan, changes a list in place.
            return zip(keys, self.values)
        return zip(keys[lo:hi], self.values[lo:hi])

    def has_match(self, selector: bytes) -> bool:
        if not selector:
            # Every record matches the empty prefix: no sort needed.
            return bool(self.keys)
        keys = self._sort()
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

    def __post_init__(self):
        if self.mem_bytes_limit < 0:
            raise ConfigError(f"node {self.id}: memory limit must be at least 0 bytes, got {self.mem_bytes_limit}")

    def ingest(self, records: Records | list[tuple[bytes, bytes]]) -> int:
        """Store the loader's ``Records``, or a list of ``(key, value)``
        pairs made into columns once, as far as they fit in the memory
        limit; returns how many stuck.

        A batch that fits is checked by its ``nbytes`` alone and stored as
        its own key and value objects, with no per-record Python work. A
        batch over the limit keeps, in order, each record that still fits
        after those kept before it.
        """
        if not isinstance(records, Records):
            records = Records.of(records)
        room = self.mem_bytes_limit - self.heap.total_bytes
        if records.nbytes > room:
            kept = []
            for record in records:
                size = len(record[0]) + len(record[1])
                if size <= room:
                    room -= size
                    kept.append(record)
            self.dropped += len(records.keys) - len(kept)
            records = Records.of(kept)
        self.heap.extend(records)
        return len(records.keys)

    def is_empty(self, selector: bytes = b"") -> bool:
        return not self.heap.has_match(selector)

    def host(self, agent: Agent, spec) -> Agent:
        """Run the map task of ``spec``, the ``JobSpec`` of the agent's job
        that the caller holds, over matching heap records, in place.

        Emitted key/value pairs are folded into the agent's payload with
        the job's combine operation, both looked up by the spec's ids in
        ``DEFAULT_REGISTRY``, the one set of functions this process holds;
        a batch kernel registered for the map and combine replaces the
        per-record map calls. The heap is never modified. The node lands
        on the itinerary even when the map function blows up, so a tour
        can continue past a bad node (ExecutionError carries the visited
        agent).
        """
        if agent.role is not AgentRole.SLAVE:
            raise RoleError(f"a {agent.role.name} agent cannot process node data")
        map_fn = DEFAULT_REGISTRY.resolve_map(spec.task.map_fn_id)
        combine = DEFAULT_REGISTRY.resolve_combine(spec.combine)
        batch_map = DEFAULT_REGISTRY.batch_map(spec.task.map_fn_id, spec.combine)

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


def load_records_tsv(path: str | Path) -> Records:
    """Read newline-delimited ``key<TAB>value`` records as ``Records``:
    the key and value columns in file order, and their byte count.

    Blank lines are skipped; a line without a tab is a record with an
    empty value. A line with an empty key raises ConfigError naming the
    file and the 1-based line number.
    """
    data = Path(path).read_bytes()
    if not data.endswith(b"\n"):
        data += b"\n"  # so the last line of the split is always the empty one
    # A file with exactly one tab on every line and no blank line keeps
    # b"\t\n" per line once every other byte is deleted. It splits into
    # alternating keys and values in C, and its key+value bytes are all the
    # other bytes. Any other file, or one with an empty key, takes the line
    # split: only it handles blank lines, lines without a tab and values
    # holding tabs, and names an empty key's line.
    shape = data.translate(None, _NOT_TAB_OR_NEWLINE)
    if shape == b"\t\n" * (len(shape) // 2):
        fields = data.replace(b"\n", b"\t").split(b"\t")
        keys = fields[0:-1:2]  # the last field is the empty one after the final newline
        if all(keys):
            return Records(keys, fields[1::2], len(data) - len(shape))
    lines = data.split(b"\n")
    for lineno, line in enumerate(lines, 1):
        if line.startswith(b"\t"):
            raise ConfigError(f"{path}, line {lineno}: empty record key")
    return Records.of([line.partition(b"\t")[::2] for line in lines if line])
