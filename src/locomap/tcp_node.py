"""Sensor node processes for TCP mode.

``serve`` runs one node in the calling process. The TCP master forks
one process per node and runs ``serve`` in each; ``python -m
locomap.tcp_node --node-id N --master HOST:PORT`` runs one from the
command line. Each node imports any job module first, so the module's
patches to this module reach that node and nothing else. A job module
that the master imports too must start no thread at import, since the
master forks after it; no node runs ``atexit`` handlers, because every
node leaves with ``os._exit``, skipping interpreter finalization. Each
node loads its data file into a heap store, listens for framed
messages, and decodes each with ``decode_frame``, which tells three
kinds of traffic apart by the first four bytes of the frame:

  - ``LMAP`` agent envelopes: host the agent over the local heap, pick
    the next hop on the slave's route, and forward it on a fresh connection.
  - ``LCTL`` control frames: the has-data query (answered with a
    ``HasData`` frame), job registration with every slave's route, shutdown.
  - anything else is a result message, which only the master receives.

Control frames are the frozen dataclasses of ``locomap.control``, one
per kind, which both ends build and read through its one codec,
``pack_control`` and ``unpack_control``.

Each frame is acknowledged with a single 0x06 byte once the receiver has
accepted it, and master and node keep one rule: the handler decodes the
frame before the ack, so a frame that does not decode (an
``EnvelopeError`` or a ``DecodeError``) is logged in one line and left
unacked, and its sender's retry policy takes over. A node acks only the
kinds it takes: a result message, or a control kind only the master
takes, is rejected the same way. A node acks an envelope before it hosts
it, hosts one agent at a time, and drops a repeat for the same (job,
agent, hop): a sender retrying after a lost acknowledgement.

Every frame a node sends, control or data, goes through
``TcpTransport.send`` and the one retry loop, ``send_with_retry``. A hop
counts when its receiver reports it: before a node acks an envelope it
sends the master an ``Arrived`` frame and waits for the master's ack, so
the master knows where every slave is before the sender can let go of
it. An arrival the master does not ack leaves the envelope unacked, and
the sender retries or gives the hop up. A node that cannot forward
reports ``SlaveFailed``; one that cannot deliver its ``NodeReady`` or
``HasData`` frame exits with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import logging
import os
import socket
import threading

from .agents import Agent, LifecycleCallbacks
from .control import CONTROL_MAGIC, Arrived, ControlFrame, HasData, NodeReady, QueryData, RegisterJob, Shutdown, SlaveFailed, pack_control, unpack_control
from .control import decode_control, encode_control  # noqa: F401  (perfbench's spawn probe imports them from here)
from .envelope import MAGIC, pack, unpack
from .errors import DecodeError, LocomapError, TransportFailure
from .nodes import SensorNode, load_records_tsv
from .orchestration import ResultMessage, decode_result, host_and_route, send_with_retry
from .registry import DEFAULT_REGISTRY, FunctionRegistry, build_default_registry
from .transport import ACK, TcpTransport, read_frame

logger = logging.getLogger("locomap.tcp_node")


def decode_frame(frame: bytes) -> Agent | ControlFrame | ResultMessage:
    """The value one frame holds: an agent (``LMAP``), a control frame
    (``LCTL``) or a result message. Raises EnvelopeError or DecodeError
    for a frame that does not decode.

    Result messages have no magic; their leading bytes are the high half
    of a u64 agent id, which never collides with the ASCII magics for the
    small ids this framework issues.
    """
    if frame[:4] == MAGIC:
        return unpack(frame)
    if frame[:4] == CONTROL_MAGIC:
        return unpack_control(frame)
    return decode_result(frame)


class FrameServer:
    """Accepts connections, reads one frame each, hands it off, acks, and
    then runs the callable the handler returned, if any."""

    def __init__(self, host: str, port: int, handler):
        self._handler = handler
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(64)
        except BaseException:  # a port in use or out of range
            self._sock.close()
            raise
        self.host, self.port = self._sock.getsockname()[:2]
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        # Shutting the listening socket down fails the blocked accept() at
        # once, so stopping never waits for a connection or a timeout.
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        if self._thread.is_alive():
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
        # over; a LocomapError is a rejected frame, expected from any local
        # process, and is logged in one line. Work the handler hands back
        # runs after the ack, so a receiver that dies doing it has still
        # acked the frame.
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
        except LocomapError as exc:
            logger.error("rejected a frame: %s: %s", type(exc).__name__, exc)
            conn.close()
            return
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


class NodeProcess:
    """The in-process half of one sensor node: server, hosting, routing."""

    def __init__(self, node: SensorNode, host: str, port: int, master_addr: tuple[str, int], registry: FunctionRegistry | None = None):
        self.node = node
        self.registry = registry or build_default_registry()
        self.callbacks = LifecycleCallbacks()
        self._jobs: dict[int, RegisterJob] = {}
        self._seen: set[tuple[int, int, int]] = set()
        self._lock = threading.Lock()
        self._hosting = threading.Lock()
        self._master = TcpTransport({"master": master_addr})
        self.shutdown = threading.Event()
        self.exit_code = 0
        self.server = FrameServer(host, port, self._on_frame)

    # -- lifecycle --

    def run_until_shutdown(self) -> int:
        """Announce the node, then serve until shutdown; the exit code."""
        self.server.start()
        self._announce(NodeReady(self.node.id, self.server.host, self.server.port, self.node.heap.total_bytes, self.node.dropped))
        self.shutdown.wait()
        self.server.stop()
        return self.exit_code

    def _announce(self, frame: NodeReady | HasData) -> None:
        """Send the master a frame it waits for. A node that cannot, after
        the retry policy, shuts down with exit code 1, whose exit the
        master learns of at once."""
        if not self._tell_master(frame):
            logger.error("node %s could not tell the master %r; exiting", self.node.id, frame.kind)
            self.exit_code = 1
            self.shutdown.set()

    # -- frame handling --

    def _on_frame(self, frame: bytes):
        """FrameServer handler; returns what runs after the ack: the hosting
        step of an accepted envelope, the answer to a has-data query, or
        the shutdown. A frame that does not decode, or that a node does not
        take (a result message, or a control kind sent to the master), raises,
        unacked."""
        value = decode_frame(frame)
        if isinstance(value, Agent):
            return self._accept_envelope(value, len(frame))
        if isinstance(value, ResultMessage):
            raise DecodeError(f"node {self.node.id} takes no result message")
        return self._on_control(value)

    def _on_control(self, control: ControlFrame):
        if isinstance(control, QueryData):
            found = not self.node.is_empty(bytes.fromhex(control.selector_hex))
            return lambda: self._announce(HasData(self.node.id, control.job_id, found))
        elif isinstance(control, RegisterJob):
            self.registry.check_job(control.spec)
            with self._lock:
                self._jobs[control.job_id] = control
            logger.info("node %s registered job %s", self.node.id, control.job_id)
        elif isinstance(control, Shutdown):
            # Set after the ack: once it is set the node may exit at any time.
            return self.shutdown.set
        else:
            raise DecodeError(f"node {self.node.id} takes no {control.kind} frame")

    def _accept_envelope(self, agent: Agent, nbytes: int):
        """Accept an arriving agent, from an envelope of ``nbytes`` bytes,
        once per (job, agent, hop).

        This runs before the frame is acked: a repeat is dropped, and the
        master is told of the arrival and has acked it before the sender
        can be. Raising leaves the envelope unacked. Returns the step that
        hosts and forwards the agent, which runs after the ack.
        """
        hop = len(agent.itinerary)
        key = (agent.job_id, agent.id, hop)
        # Held across the report, so a repeat waits for the first copy's outcome.
        with self._lock:
            if key in self._seen:
                logger.warning("node %s dropped a repeated envelope for agent %s", self.node.id, agent.id)
                return None
            if not self._tell_master(Arrived(agent.id, agent.job_id, hop, nbytes, self.node.id)):
                raise TransportFailure(f"master did not ack the arrival of agent {agent.id}")
            self._seen.add(key)
            self.callbacks.fire_arrive(agent)
        return lambda: self._host_and_forward(agent)

    def _host_and_forward(self, agent: Agent) -> None:
        """Host the agent and send it on; one agent at a time per node."""
        with self._hosting:
            with self._lock:
                reg = self._jobs.get(agent.job_id)
            if reg is None:
                logger.error("node %s has no registration for job %s", self.node.id, agent.job_id)
                self._tell_master(SlaveFailed(agent.id, agent.job_id, "job not registered at node"))
                return

            route = reg.routes.get(agent.id, ())
            agent, nxt, message = host_and_route(self.node, agent, reg.spec, self.registry, route, reg.master, reg.results_only)
            payload = message.encode() if message is not None else pack(agent, self.callbacks)
            if not self._send(TcpTransport(reg.addresses), nxt, payload):
                self._tell_master(SlaveFailed(agent.id, agent.job_id, f"could not forward to node {nxt}"))

    # -- outbound --

    def _send(self, transport: TcpTransport, dst, payload: bytes) -> bool:
        """One frame under the retry policy; True once it is acked."""
        _, fail = send_with_retry(lambda: transport.send(self.node.id, dst, payload), lambda s: not self.shutdown.wait(s))
        if fail is not None:
            logger.error("node %s could not send to node %s: %s", self.node.id, dst, fail)
        return fail is None

    def _tell_master(self, frame: ControlFrame) -> bool:
        """Every control frame to the master; True once the master acked it."""
        return self._send(self._master, "master", pack_control(frame))


def serve(node_id: int, port: int, data_file: str, master: tuple[str, int], host="127.0.0.1", mem_limit=1 << 30, job_module="", log_dir="") -> int:
    """Run one node in this process: import any job module, load the data
    file (none when empty), serve until shutdown; the exit code. With
    ``log_dir``, stderr goes to ``node_<id>.log`` there."""
    if log_dir:
        log = os.open(os.path.join(log_dir, f"node_{node_id}.log"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(log, 2)
        os.close(log)
    logging.basicConfig(
        level=os.environ.get("LOCOMAP_LOG", "INFO").upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        force=True,
    )
    node = SensorNode(id=node_id, mem_bytes_limit=mem_limit)
    try:
        if job_module:
            importlib.import_module(job_module)
        if data_file:
            stored = node.ingest(load_records_tsv(data_file))
            logger.info("node %s ingested %d records (%d bytes, %d dropped)", node.id, stored, node.heap.total_bytes, node.dropped)
        return NodeProcess(node, host, port, master, registry=DEFAULT_REGISTRY).run_until_shutdown()
    except LocomapError as exc:
        logger.error("node %s aborting: %s", node_id, exc)
    except Exception:
        logger.exception("node %s crashed", node_id)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="locomap-node", description="Run one sensor node process")
    parser.add_argument("--node-id", type=int, action="append", required=True, help="the one node this process serves")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 (the default) picks a free port")
    parser.add_argument("--master", required=True, help="host:port of the master listener")
    parser.add_argument("--data-file", default="", help="TSV records to ingest at startup")
    parser.add_argument("--mem-limit", type=int, default=1 << 30)
    parser.add_argument("--job-module", default="", help="module imported at startup to register custom functions")
    parser.add_argument("--log-dir", default="", help="stderr goes to node_<id>.log here")
    args = parser.parse_args(argv)
    if len(args.node_id) > 1:
        parser.error("give --node-id once: a process serves one node")
    host, _, master_port = args.master.partition(":")
    return serve(args.node_id[0], args.port, args.data_file, (host, int(master_port)), args.host, args.mem_limit, args.job_module, args.log_dir)


if __name__ == "__main__":
    # Run main from the imported module, not from this __main__ copy, so a
    # job module's patches to locomap.tcp_node reach the node. Skip
    # interpreter finalization, as a node forked by the master does.
    from locomap import tcp_node

    code = tcp_node.main()
    logging.shutdown()
    os._exit(code)
