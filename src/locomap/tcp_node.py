"""Standalone sensor-node process for TCP mode.

Run as ``python -m locomap.tcp_node``. The process loads its data file
into a heap store, listens for framed messages, and handles three kinds
of traffic, told apart by the first four bytes of each frame:

  - ``LMAP`` agent envelopes: host the agent over the local heap, pick
    the next hop, and forward it on a fresh connection.
  - ``LCTL`` control JSON: job registration, shutdown.
  - anything else is a result message, which only the master receives.

One agent runs at a time on a node; arriving envelopes queue up, and an
envelope that arrives again for the same hop (a sender retrying after a
lost acknowledgement) is dropped. Each frame is acknowledged with a single
0x06 byte once the node has acted on it.

A node tells the master about a hop before making it: the ``forwarded``
stat, keyed by the hop number, is acknowledged by the master before the
envelope leaves, so the master holds every stat of a slave before
anything the hop causes can reach it. A hop that cannot be made is
reported as ``slave_failed`` with the same hop number.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import queue
import socket
import sys
import threading
from dataclasses import dataclass

from .agents import Agent, LifecycleCallbacks, NodeId, TaskDescriptor, next_destination
from .envelope import pack, unpack
from .errors import EnvelopeError, ExecutionError, LocomapError
from .nodes import SensorNode, load_records_tsv
from .orchestration import JobSpec, home_message, send_with_retry
from .registry import DEFAULT_REGISTRY, FunctionRegistry, build_default_registry
from .transport import ACK, TcpTransport, read_frame, write_frame

logger = logging.getLogger("locomap.tcp_node")

CONTROL_MAGIC = b"LCTL"
ENVELOPE_MAGIC = b"LMAP"


def encode_control(doc: dict) -> bytes:
    return CONTROL_MAGIC + json.dumps(doc, sort_keys=True).encode("utf-8")


def decode_control(data: bytes) -> dict:
    return json.loads(data[4:].decode("utf-8"))


def classify_frame(data: bytes) -> str:
    """'envelope', 'control' or 'result'.

    Result messages have no magic; their leading bytes are the high half
    of a u64 agent id, which never collides with the ASCII magics for the
    small ids this framework issues.
    """
    if data[:4] == ENVELOPE_MAGIC:
        return "envelope"
    if data[:4] == CONTROL_MAGIC:
        return "control"
    return "result"


class FrameServer:
    """Accepts connections, reads one frame each, acks, hands it off."""

    def __init__(self, host: str, port: int, handler):
        self._handler = handler
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.host, self.port = self._sock.getsockname()[:2]
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        # Shutting the listening socket down fails the blocked accept() at
        # once, so stopping never waits for a connection or a timeout.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(timeout=2.0)
        self._sock.close()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                break
            threading.Thread(target=self._serve_one, args=(conn,), daemon=True).start()

    def _serve_one(self, conn: socket.socket) -> None:
        # The ack is sent only after the handler accepted the frame, so a
        # sender that saw an ack knows the receiver acted on it (an agent
        # envelope is queued, a job registration is in force). A handler
        # failure closes without acking and the sender's retry policy takes
        # over.
        try:
            conn.settimeout(10.0)
            frame = read_frame(conn)
        except OSError as exc:
            logger.warning("dropped inbound connection: %s", exc)
            conn.close()
            return
        if frame is None:
            conn.close()
            return
        try:
            self._handler(frame)
        except Exception:
            logger.exception("frame handler failed")
            conn.close()
            return
        try:
            conn.sendall(ACK)
        except OSError as exc:
            logger.warning("could not acknowledge a frame: %s", exc)
        finally:
            conn.close()


@dataclass
class JobRegistration:
    """Everything a node needs to route agents for one job."""

    spec: JobSpec
    results_only: bool
    master: NodeId
    addresses: dict[NodeId, tuple[str, int]]
    partitions: dict[int, tuple[NodeId, ...]]

    @classmethod
    def from_control(cls, doc: dict) -> "JobRegistration":
        task = TaskDescriptor(
            map_fn_id=doc["map_fn_id"],
            reduce_fn_id=doc["reduce_fn_id"],
            input_selector=bytes.fromhex(doc.get("selector_hex", "")),
        )
        spec = JobSpec(job_id=int(doc["job_id"]), task=task, combine=doc["combine"])
        return cls(
            spec=spec,
            results_only=bool(doc.get("results_only", False)),
            master=int(doc["master"]),
            addresses={int(k): (v[0], int(v[1])) for k, v in doc["addresses"].items()},
            partitions={int(k): tuple(int(n) for n in v) for k, v in doc["partitions"].items()},
        )

    def register_control(self) -> dict:
        return {
            "type": "register_job",
            "job_id": self.spec.job_id,
            "map_fn_id": self.spec.task.map_fn_id,
            "reduce_fn_id": self.spec.task.reduce_fn_id,
            "selector_hex": self.spec.task.input_selector.hex(),
            "combine": self.spec.combine,
            "results_only": self.results_only,
            "master": self.master,
            "addresses": {str(k): [v[0], v[1]] for k, v in self.addresses.items()},
            "partitions": {str(k): list(v) for k, v in self.partitions.items()},
        }


class NodeProcess:
    """The in-process half of one sensor node: server, worker, routing."""

    def __init__(self, node: SensorNode, host: str, port: int, master_addr: tuple[str, int], registry: FunctionRegistry | None = None):
        self.node = node
        self.master_addr = master_addr
        self.registry = registry or build_default_registry()
        self.callbacks = LifecycleCallbacks()
        self._jobs: dict[int, JobRegistration] = {}
        self._seen: set[tuple[int, int, int]] = set()
        self._lock = threading.Lock()
        self._inbox: queue.Queue = queue.Queue()
        self.shutdown = threading.Event()
        self.server = FrameServer(host, port, self._on_frame)
        self._worker = threading.Thread(target=self._work_loop, daemon=True)

    # -- lifecycle --

    def start(self) -> None:
        self.server.start()
        self._worker.start()

    def run_until_shutdown(self) -> None:
        self.start()
        self.announce_ready()
        self.shutdown.wait()
        self.server.stop()

    def announce_ready(self) -> None:
        doc = {
            "type": "node_ready",
            "node": self.node.id,
            "host": self.server.host,
            "port": self.server.port,
            "heap_bytes": self.node.heap.total_bytes,
            "records": len(self.node.heap),
        }
        self._send_control_to_master(doc)

    # -- frame handling --

    def _on_frame(self, frame: bytes) -> None:
        kind = classify_frame(frame)
        if kind == "control":
            self._on_control(decode_control(frame))
        elif kind == "envelope":
            self._accept_envelope(frame)
        else:
            logger.warning("node %s ignoring unexpected result message", self.node.id)

    def _on_control(self, doc: dict) -> None:
        kind = doc.get("type")
        if kind == "register_job":
            reg = JobRegistration.from_control(doc)
            self.registry.register_job(reg.spec)
            with self._lock:
                self._jobs[reg.spec.job_id] = reg
            logger.info("node %s registered job %s", self.node.id, reg.spec.job_id)
        elif kind == "shutdown":
            self.shutdown.set()
        else:
            logger.warning("node %s ignoring control message %r", self.node.id, kind)

    def _accept_envelope(self, frame: bytes) -> None:
        """Queue an arriving agent once per (job, agent, hop).

        This runs before the frame is acked, so a sender whose retry was
        acked knows the repeat has already been dropped.
        """
        try:
            agent = unpack(frame)
        except EnvelopeError as exc:
            logger.error("node %s rejected an envelope: %s", self.node.id, exc)
            return
        key = (agent.job_id, agent.id, len(agent.itinerary))
        with self._lock:
            if key in self._seen:
                logger.warning("node %s dropped a repeated envelope for agent %s", self.node.id, agent.id)
                return
            self._seen.add(key)
            self.callbacks.fire_arrive(agent)
        self._inbox.put(agent)

    def _work_loop(self) -> None:
        while not self.shutdown.is_set():
            try:
                agent = self._inbox.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                self._handle_envelope(agent)
            except Exception:
                logger.exception("node %s failed handling an envelope", self.node.id)

    def _handle_envelope(self, agent: Agent) -> None:
        with self._lock:
            reg = self._jobs.get(agent.job_id)
        if reg is None:
            logger.error("node %s has no registration for job %s", self.node.id, agent.job_id)
            self._report_failure(agent.id, agent.job_id, "job not registered at node", None)
            return

        try:
            agent = self.node.host(agent, self.registry)
        except ExecutionError as exc:
            logger.warning("node %s map task failed, continuing: %s", self.node.id, exc)
            agent = exc.agent

        partition = reg.partitions.get(agent.id, ())
        # Without a remote emptiness oracle the slave simply visits every
        # node left in its slice; an empty node is a no-op stop.
        nxt = next_destination(agent, partition, lambda _n: True, reg.master)
        transport = TcpTransport(reg.addresses)

        hop = len(agent.itinerary)
        if nxt == reg.master and reg.results_only:
            payload = home_message(agent, self.registry.resolve_combine(reg.spec.combine)).encode()
        else:
            payload = pack(agent, self.callbacks)
            # Acked by the master before the hop is made, never after.
            self._report_stat(agent.id, agent.job_id, hop, len(payload), nxt)

        _, fail = send_with_retry(
            lambda: transport.send(self.node.id, nxt, payload), lambda s: not self.shutdown.wait(s)
        )
        if fail is not None:
            logger.error("node %s could not forward agent %s to %s: %s", self.node.id, agent.id, nxt, fail)
            self._report_failure(agent.id, agent.job_id, f"could not forward to node {nxt}", hop)

    # -- outbound helpers --

    def _report_failure(self, agent_id: int, job_id: int, reason: str, hop: int | None) -> None:
        self._send_control_to_master(
            {"type": "slave_failed", "agent_id": agent_id, "job_id": job_id, "hop": hop, "reason": reason}
        )

    def _report_stat(self, agent_id: int, job_id: int, hop: int, nbytes: int, dst: NodeId) -> None:
        self._send_control_to_master(
            {"type": "forwarded", "agent_id": agent_id, "job_id": job_id, "hop": hop, "bytes": nbytes, "dst": dst}
        )

    def _send_control_to_master(self, doc: dict) -> None:
        payload = encode_control(doc)
        sock = None
        try:
            sock = socket.create_connection(self.master_addr, timeout=5.0)
            write_frame(sock, payload)
            sock.recv(1)
        except OSError as exc:
            logger.error("node %s could not reach the master: %s", self.node.id, exc)
        finally:
            if sock is not None:
                sock.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="locomap-node", description="Sensor node process for TCP mode")
    parser.add_argument("--node-id", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port; the master learns it from node_ready")
    parser.add_argument("--master", required=True, help="host:port of the master listener")
    parser.add_argument("--data-file", default="", help="TSV records to ingest at startup")
    parser.add_argument("--mem-limit", type=int, default=1 << 30)
    parser.add_argument("--job-module", default="", help="module imported at startup to register custom functions")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=os.environ.get("LOCOMAP_LOG", "INFO").upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )

    if args.job_module:
        importlib.import_module(args.job_module)

    node = SensorNode(id=args.node_id, mem_bytes_limit=args.mem_limit)
    if args.data_file:
        stored = node.ingest(load_records_tsv(args.data_file))
        logger.info("node %s ingested %d records (%d bytes, %d dropped)", node.id, stored, node.heap.total_bytes, node.dropped)

    host, _, port = args.master.partition(":")
    try:
        proc = NodeProcess(node, args.host, args.port, (host, int(port)), registry=DEFAULT_REGISTRY)
        proc.run_until_shutdown()
    except LocomapError as exc:
        logger.error("node %s aborting: %s", args.node_id, exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
