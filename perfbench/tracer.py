"""In-memory span tracer that wraps locomap's public functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each traced
function at the name its caller looks it up (a module global such as
``locomap.orchestration.migrate``, or a class attribute such as
``SensorNode.host``) and ``uninstall`` puts the originals back.

A span is (name, start, end, parent, job). Spans nest by call order on
the master's thread; the TCP master's phases are rebuilt afterwards from
the sends it made (``add_tcp_phases``). A span's self time is its
duration minus the part of that interval its children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.duration - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --

    def open(self, name: str, tag: str = "") -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job, tag))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.job][name] += n

    def wrap(self, fn, name: str, after=None):
        """Span around ``fn``; ``after(args, result)`` adds counts once the
        span has closed, so counting is not billed to the layer."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching --

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from locomap import envelope, nodes, orchestration, registry, tcp_cluster, transport
        from locomap.errors import TransportFailure

        count = self.count

        # nodes: ingestion, heap scans, hosting
        self.patch(nodes, "load_records_tsv", self.wrap(nodes.load_records_tsv, "nodes.ingest"))
        self.patch(
            nodes.SensorNode,
            "ingest",
            self.wrap(nodes.SensorNode.ingest, "nodes.ingest", lambda a, stored: count("nodes.records", stored)),
        )
        records_matching = nodes.HeapStore.records_matching

        def eager_records_matching(store, selector):
            # The heap scan is lazy and would run inside the fold; drain it
            # here so its time lands on the scan, not on map+fold.
            index = self.open("nodes.scan")
            try:
                found = list(records_matching(store, selector))
            finally:
                self.close(index)
            return iter(found)

        self.patch(nodes.HeapStore, "records_matching", eager_records_matching)
        self.patch(
            nodes.HeapStore,
            "has_match",
            self.wrap(nodes.HeapStore.has_match, "nodes.scan", lambda a, r: count("nodes.has_match_calls")),
        )
        self.patch(nodes.SensorNode, "host", self.wrap(nodes.SensorNode.host, "nodes.host"))

        # registry: map+fold and the partial codec
        fold = registry.CombineOp.fold

        def traced_fold(op, partial, emissions):
            index = self.open("registry.map_fold")
            try:
                out = fold(op, partial, emissions)
            finally:
                self.close(index)
            # Every wordcount emission adds exactly 1 to the partial's total.
            count("registry.emissions", sum(out.values()) - sum(partial.values()))
            return out

        self.patch(registry.CombineOp, "fold", traced_fold)
        encode = self.wrap(registry.encode_partial, "registry.encode", lambda a, r: count("registry.partial_bytes", len(r)))
        decode = self.wrap(registry.decode_partial, "registry.decode", lambda a, r: count("registry.partial_bytes", len(a[0])))
        for module in (nodes, orchestration, tcp_cluster):
            self.patch(module, "encode_partial", encode)
        for module in (nodes, orchestration):
            self.patch(module, "decode_partial", decode)

        # envelope: pack, structure + CRC checks, migrate
        pack = self.wrap(envelope.pack, "envelope.pack", lambda a, r: count("envelope.bytes", len(r)))
        self.patch(envelope, "pack", pack)
        self.patch(tcp_cluster, "pack", pack)
        self.patch(envelope, "check_structure", self.wrap(envelope.check_structure, "envelope.check"))
        self.patch(envelope, "check_integrity", self.wrap(envelope.check_integrity, "envelope.check"))
        self.patch(orchestration, "migrate", self.wrap(envelope.migrate, "envelope.migrate"))

        # transport: simulated and TCP sends
        def after_sim_send(args, report):
            count("transport.sends")
            if not report.delivered:
                count("transport.send_failures")

        self.patch(transport.SimTransport, "send", self.wrap(transport.SimTransport.send, "transport.sim_send", after_sim_send))
        tcp_send = transport.TcpTransport.send

        def traced_tcp_send(tx, src, dst, payload, at=0.0):
            if payload[:4] == b"LMAP":
                tag = "dispatch"
            elif b'"register_job"' in payload:
                tag = "register"
            elif b'"shutdown"' in payload:
                tag = "shutdown"
            else:
                tag = "other"
            index = self.open("transport.tcp_send", tag)
            try:
                report = tcp_send(tx, src, dst, payload, at)
            except TransportFailure:
                self.close(index)
                count("transport.send_failures")
                raise
            self.close(index)
            count("transport.tcp_sends")
            count("transport.tcp_connect_s", report.connect_s)
            count("transport.tcp_transfer_s", report.transfer_s)
            return report

        self.patch(transport.TcpTransport, "send", traced_tcp_send)

        # orchestration: the sim engine, aggregation, retries
        self.patch(orchestration, "run_job", self.wrap(orchestration.run_job, "orchestration.run_job"))
        aggregate = self.wrap(orchestration.aggregate, "orchestration.aggregate")
        self.patch(orchestration, "aggregate", aggregate)
        self.patch(tcp_cluster, "aggregate", aggregate)
        retry_policy = orchestration.retry_policy

        def counted_retry_policy(event, attempt):
            decision = retry_policy(event, attempt)
            if decision.action is orchestration.RetryAction.RETRY:
                count("orchestration.retries")
            return decision

        self.patch(orchestration, "retry_policy", counted_retry_policy)
        self.patch(tcp_cluster, "retry_policy", counted_retry_policy)

        # tcp_cluster: the master; the transport is built once every node is ready
        self.patch(tcp_cluster, "run_tcp_job", self.wrap(tcp_cluster.run_tcp_job, "tcp_cluster.run_tcp_job"))
        tcp_transport = tcp_cluster.TcpTransport

        def marked_transport(*args, **kwargs):
            self.close(self.open("tcp_cluster.ready"))
            return tcp_transport(*args, **kwargs)

        self.patch(tcp_cluster, "TcpTransport", marked_transport)

    # -- analysis --

    def add_tcp_phases(self) -> None:
        """Split each ``run_tcp_job`` span into spawn+ready, register,
        dispatch, collect and teardown, from the sends the master made,
        and move the spans each phase covers under it."""
        for job_index, job in enumerate(list(self.spans)):
            if job.name != "tcp_cluster.run_tcp_job":
                continue
            inner = [i for i, s in enumerate(self.spans) if s.parent == job_index]
            sends = [self.spans[i] for i in inner if self.spans[i].name == "transport.tcp_send"]

            def first(name):
                return min(s.start for s in (self.spans[i] for i in inner) if s.name == name)

            def last_end(tag):
                return max(s.end for s in sends if s.tag == tag)

            ready = first("tcp_cluster.ready")
            registered = last_end("register")
            dispatched = last_end("dispatch")
            shutdown = min(s.start for s in sends if s.tag == "shutdown")
            edges = [job.start, ready, registered, dispatched, shutdown, first("orchestration.aggregate")]
            names = ["spawn_ready", "register", "dispatch", "collect", "teardown"]
            phases = []
            for name, lo, hi in zip(names, edges, edges[1:]):
                self.spans.append(Span(f"tcp_cluster.{name}", lo, hi, job_index, job.job))
                phases.append(len(self.spans) - 1)
            for i in inner:
                span = self.spans[i]
                for p in phases:
                    if self.spans[p].start <= span.start and span.end <= self.spans[p].end:
                        span.parent = p
                        break

    def per_job(self) -> dict[str, dict[str, float]]:
        """Self time by span name, plus counts, for every job id."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span.job][span.name] += own
            if span.parent is None:
                out[span.job]["job"] += span.duration
        for job, counts in self.counts.items():
            for name, value in counts.items():
                out[job][name] += value
        return out

    def dump(self) -> dict:
        return {
            "spans": [asdict(span) for span in self.spans],
            "counts": {job: dict(c) for job, c in self.counts.items()},
        }
