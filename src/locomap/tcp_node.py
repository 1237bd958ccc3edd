"""Sensor node processes for TCP mode.

Run as ``python -m locomap.tcp_node --node-id N [--node-id M ...]``. The
process is a launcher: it imports the node code and any ``--job-module``
once, then forks one node process per ``--node-id``, reaps each, tells
the master with a ``node_exited`` control frame (node id, exit code), and
exits when every node has. A job module must therefore start no thread
at import, and its ``atexit`` handlers never run: the launcher and every
node leave with ``os._exit``, skipping interpreter finalization. Each
node loads its data file into a heap store, listens for framed messages,
and handles three kinds of traffic, told apart by the first four bytes
of each frame:

  - ``LMAP`` agent envelopes: host the agent over the local heap, pick
    the next hop on the slave's route, and forward it on a fresh connection.
  - ``LCTL`` control JSON: the has-data query (answered with a ``has_data``
    frame), job registration with every slave's route, shutdown.
  - anything else is a result message, which only the master receives.

Each frame is acknowledged with a single 0x06 byte once the node has
accepted it. A node acks an envelope before it hosts it, hosts one agent
at a time, and drops a repeat for the same (job, agent, hop): a sender
retrying after a lost acknowledgement.

Every frame a node sends, control or data, goes through
``TcpTransport.send`` and the one retry loop, ``send_with_retry``. A hop
counts when its receiver reports it: before a node acks an envelope it
sends the master an ``arrived`` control (agent, job, hop, envelope bytes,
node) and waits for the master's ack, so the master knows where every
slave is before the sender can let go of it. An arrival the master does
not ack leaves the envelope unacked, and the sender retries or gives the
hop up. A node that cannot forward reports ``slave_failed``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass

from .agents import Agent, LifecycleCallbacks, NodeId, TaskDescriptor
from .envelope import pack, unpack
from .errors import EnvelopeError, LocomapError, TransportFailure
from .nodes import SensorNode, load_records_tsv
from .orchestration import JobSpec, host_and_route, send_with_retry
from .registry import DEFAULT_REGISTRY, FunctionRegistry, build_default_registry
from .transport import ACK, TcpTransport, read_frame

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
    """Accepts connections, reads one frame each, hands it off, acks, and
    then runs the callable the handler returned, if any."""

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
        # envelope is accepted, a job registration is in force). A handler
        # failure closes without acking and the sender's retry policy takes
        # over. Work the handler hands back runs after the ack, so a
        # receiver that dies doing it has still acked the frame.
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
            then = self._handler(frame)
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
        if then is not None:
            try:
                then()
            except Exception:
                logger.exception("work after the ack failed")


@dataclass
class JobRegistration:
    """Everything a node needs to route agents for one job: ``routes``
    maps each slave's agent id to its planned route."""

    spec: JobSpec
    results_only: bool
    master: NodeId
    addresses: dict[NodeId, tuple[str, int]]
    routes: dict[int, tuple[NodeId, ...]]

    @classmethod
    def from_control(cls, doc: dict) -> "JobRegistration":
        task = TaskDescriptor(doc["map_fn_id"], doc["reduce_fn_id"], bytes.fromhex(doc["selector_hex"]))
        return cls(
            spec=JobSpec(job_id=doc["job_id"], task=task, combine=doc["combine"]),
            results_only=doc["results_only"],
            master=doc["master"],
            addresses={int(k): tuple(v) for k, v in doc["addresses"].items()},
            routes={int(k): tuple(v) for k, v in doc["routes"].items()},
        )

    def register_control(self) -> dict:
        # JSON turns the int keys of addresses and routes into strings.
        task = self.spec.task
        return {
            "type": "register_job",
            "job_id": self.spec.job_id,
            "map_fn_id": task.map_fn_id,
            "reduce_fn_id": task.reduce_fn_id,
            "selector_hex": task.input_selector.hex(),
            "combine": self.spec.combine,
            "results_only": self.results_only,
            "master": self.master,
            "addresses": self.addresses,
            "routes": self.routes,
        }


class NodeProcess:
    """The in-process half of one sensor node: server, hosting, routing."""

    def __init__(self, node: SensorNode, host: str, port: int, master_addr: tuple[str, int], registry: FunctionRegistry | None = None):
        self.node = node
        self.registry = registry or build_default_registry()
        self.callbacks = LifecycleCallbacks()
        self._jobs: dict[int, JobRegistration] = {}
        self._seen: set[tuple[int, int, int]] = set()
        self._lock = threading.Lock()
        self._hosting = threading.Lock()
        self._master = TcpTransport({"master": master_addr})
        self.shutdown = threading.Event()
        self.server = FrameServer(host, port, self._on_frame)

    # -- lifecycle --

    def start(self) -> None:
        self.server.start()

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
        }
        self._tell_master(doc)

    # -- frame handling --

    def _on_frame(self, frame: bytes):
        """FrameServer handler; returns what runs after the ack: the hosting
        step of an accepted envelope, or the answer to a has-data query."""
        kind = classify_frame(frame)
        if kind == "control":
            return self._on_control(decode_control(frame))
        elif kind == "envelope":
            return self._accept_envelope(frame)
        else:
            logger.warning("node %s ignoring unexpected result message", self.node.id)

    def _on_control(self, doc: dict):
        kind = doc.get("type")
        if kind == "query_data":
            found = not self.node.is_empty(bytes.fromhex(doc["selector_hex"]))
            answer = {"type": "has_data", "node": self.node.id, "job_id": doc["job_id"], "has_data": found}
            return lambda: self._tell_master(answer)
        elif kind == "register_job":
            reg = JobRegistration.from_control(doc)
            self.registry.register_job(reg.spec)
            with self._lock:
                self._jobs[reg.spec.job_id] = reg
            logger.info("node %s registered job %s", self.node.id, reg.spec.job_id)
        elif kind == "shutdown":
            self.shutdown.set()
        else:
            logger.warning("node %s ignoring control message %r", self.node.id, kind)

    def _accept_envelope(self, frame: bytes):
        """Accept an arriving agent once per (job, agent, hop).

        This runs before the frame is acked: a repeat is dropped, and the
        master is told of the arrival and has acked it before the sender
        can be. Raising leaves the envelope unacked. Returns the step that
        hosts and forwards the agent, which runs after the ack.
        """
        try:
            agent = unpack(frame)
        except EnvelopeError as exc:
            logger.error("node %s rejected an envelope: %s", self.node.id, exc)
            return None
        hop = len(agent.itinerary)
        key = (agent.job_id, agent.id, hop)
        # Held across the report, so a repeat waits for the first copy's outcome.
        with self._lock:
            if key in self._seen:
                logger.warning("node %s dropped a repeated envelope for agent %s", self.node.id, agent.id)
                return None
            arrived = {"type": "arrived", "agent_id": agent.id, "job_id": agent.job_id, "hop": hop, "bytes": len(frame), "node": self.node.id}
            if not self._tell_master(arrived):
                raise TransportFailure(f"master did not ack the arrival of agent {agent.id}")
            self._seen.add(key)
            self.callbacks.fire_arrive(agent)
        return lambda: self._host_and_forward(agent)

    def _host_and_forward(self, agent: Agent) -> None:
        """Host the agent and send it on; one agent at a time per node."""
        failed = {"type": "slave_failed", "agent_id": agent.id, "job_id": agent.job_id}
        with self._hosting:
            with self._lock:
                reg = self._jobs.get(agent.job_id)
            if reg is None:
                logger.error("node %s has no registration for job %s", self.node.id, agent.job_id)
                self._tell_master({**failed, "reason": "job not registered at node"})
                return

            route = reg.routes.get(agent.id, ())
            agent, nxt, message = host_and_route(self.node, agent, self.registry, route, reg.master, reg.results_only)
            payload = message.encode() if message is not None else pack(agent, self.callbacks)
            if not self._send(TcpTransport(reg.addresses), nxt, payload):
                self._tell_master({**failed, "reason": f"could not forward to node {nxt}"})

    # -- outbound --

    def _send(self, transport: TcpTransport, dst, payload: bytes) -> bool:
        """One frame under the retry policy; True once it is acked."""
        _, fail = send_with_retry(lambda: transport.send(self.node.id, dst, payload), lambda s: not self.shutdown.wait(s))
        if fail is not None:
            logger.error("node %s could not send to node %s: %s", self.node.id, dst, fail)
        return fail is None

    def _tell_master(self, doc: dict) -> bool:
        """Every control frame to the master; True once the master acked it."""
        return self._send(self._master, "master", encode_control(doc))


def _serve(args, node_id: int, port: int, data_file: str, master: tuple[str, int]) -> int:
    """One forked node: load its data file, serve until shutdown; the exit code."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    node = SensorNode(id=node_id, mem_bytes_limit=args.mem_limit)
    try:
        if args.log_dir:
            log = os.open(os.path.join(args.log_dir, f"node_{node_id}.log"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(log, 2)
            os.close(log)
        if data_file:
            stored = node.ingest(load_records_tsv(data_file))
            logger.info("node %s ingested %d records (%d bytes, %d dropped)", node.id, stored, node.heap.total_bytes, node.dropped)
        proc = NodeProcess(node, args.host, port, master, registry=DEFAULT_REGISTRY)
        proc.run_until_shutdown()
    except LocomapError as exc:
        logger.error("node %s aborting: %s", node_id, exc)
        return 1
    except Exception:
        logger.exception("node %s crashed", node_id)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="locomap-node", description="Launcher that forks one sensor node process per --node-id")
    parser.add_argument("--node-id", type=int, action="append", required=True, help="repeat once per node")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, action="append", help="once per --node-id, in order; 0 (the default) picks a free port")
    parser.add_argument("--master", required=True, help="host:port of the master listener")
    parser.add_argument("--data-file", action="append", help="once per --node-id, in order: TSV records to ingest at startup, or ''")
    parser.add_argument("--mem-limit", type=int, default=1 << 30)
    parser.add_argument("--job-module", default="", help="module imported before the fork to register custom functions")
    parser.add_argument("--log-dir", default="", help="each node's stderr goes to node_<id>.log here")
    args = parser.parse_args(argv)
    nodes = args.node_id
    ports = args.port or [0] * len(nodes)
    data_files = args.data_file or [""] * len(nodes)
    if len(ports) != len(nodes) or len(data_files) != len(nodes):
        parser.error("give --port and --data-file once per --node-id, or not at all")

    logging.basicConfig(
        level=os.environ.get("LOCOMAP_LOG", "INFO").upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )

    if args.job_module:
        importlib.import_module(args.job_module)
    host, _, master_port = args.master.partition(":")
    master = (host, int(master_port))

    # A SIGTERM to the process group stops the nodes but not the launcher,
    # which then reaps them and reports their exits like any other.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    children: dict[int, int] = {}
    for node_id, port, data_file in zip(nodes, ports, data_files):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _serve(args, node_id, port, data_file, master)
            finally:
                os._exit(code)
        children[pid] = node_id

    transport = TcpTransport({"master": master})
    failed = False
    while children:
        pid, status = os.wait()
        node_id = children.pop(pid)
        code = os.waitstatus_to_exitcode(status)
        failed = failed or code != 0
        exited = encode_control({"type": "node_exited", "node": node_id, "code": code})
        _, fail = send_with_retry(lambda: transport.send("launcher", "master", exited), time.sleep)
        if fail is not None:
            logger.error("could not tell the master that node %s exited: %s", node_id, fail)
    return int(failed)


if __name__ == "__main__":
    # Run main from the imported module, not from this __main__ copy, so a
    # job module's patches to locomap.tcp_node reach the forked nodes. Skip
    # interpreter finalization once every node_exited report is out; the
    # nodes themselves end with os._exit too.
    from locomap import tcp_node

    code = tcp_node.main()
    logging.shutdown()
    os._exit(code)
