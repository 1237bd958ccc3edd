"""Sensor node processes for TCP mode.

``serve`` runs one node in the calling process, on a listening socket
it is handed. The TCP master binds every node's listener, then forks
one process per node and runs ``serve`` in each, handing it its
listener and the whole job as a ``NodeJob``: the job's spec, whether
slaves go home as result messages, the master's node id and every
node's address. So a node holds every module, patch and registered
function the master held when it forked, and the job it serves: a job
module is imported by the master, and must start no thread at import,
since the master forks after it. ``python -m locomap.tcp_node --node-id
N --master HOST:PORT`` runs one node from the command line with no job:
it binds its own listener, answers ``has_data`` for the empty selector
and hosts nothing. No node runs ``atexit`` handlers, because every node
leaves with ``os._exit``, skipping interpreter finalization. Each node
loads its data file into a heap store, announces itself with a
``NodeReady`` frame that says whether its heap holds a record for the
job's selector, serves framed messages, and decodes each with
``decode_frame``, which tells three kinds of traffic apart by the first
four bytes of the frame:

  - ``LMAP`` agent envelopes: host the agent over the local heap, pick
    the next hop on the slave's route, and forward it on a fresh connection.
  - ``LCTL`` control frames: the job's registration, with every slave's
    route, and shutdown.
  - anything else is a result message, which only the master receives.

Control frames are the frozen dataclasses of ``locomap.control``, one
per kind, which both ends build and read through its one codec,
``pack_control`` and ``unpack_control``.

Each frame is acknowledged with a single 0x06 byte once the receiver has
accepted it, and master and node keep one rule: the handler decodes the
frame before the ack, so a frame that does not decode (an
``EnvelopeError`` or a ``DecodeError``) is logged in one line and left
unacked, and its sender's retry policy takes over. A node acks only the
frames it takes: a result message, a control kind only the master takes,
or a registration for a job other than its own (every registration, for
a node with no job) is rejected the same way. A node acks an envelope
before it hosts it, hosts one agent at a time, and drops a repeat for
the same (job, agent, hop): a sender retrying after a lost
acknowledgement.

Every frame a node sends, control or data, goes through
``TcpTransport.send`` and the one retry loop, ``send_with_retry``. A hop
counts when its receiver reports it: before a node acks an envelope it
sends the master an ``Arrived`` frame and waits for the master's ack, so
the master knows where every slave is before the sender can let go of
it. An arrival the master does not ack leaves the envelope unacked, and
the sender retries or gives the hop up. A node that cannot forward
reports ``SlaveFailed``; one that cannot deliver its ``NodeReady`` frame
exits with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import socket
import threading
from typing import NamedTuple

from .agents import Agent, JobSpec, NodeId
from .control import CONTROL_MAGIC, Arrived, ControlFrame, NodeReady, RegisterJob, Shutdown, SlaveFailed, pack_control, unpack_control
from .control import decode_control, encode_control  # noqa: F401  (perfbench's spawn probe imports them from here)
from .envelope import MAGIC, pack, unpack
from .errors import ConfigError, DecodeError, LocomapError, TransportFailure
from .nodes import SensorNode, load_records_tsv
from .orchestration import ResultMessage, decode_result, host_and_route, send_with_retry
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


def listen(host: str, port: int, who: str) -> socket.socket:
    """A socket listening at host:port for ``who``, port 0 picking a free
    one. A port in use or out of range is a ConfigError naming ``who``,
    the host and the port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
    except (OSError, OverflowError) as exc:
        sock.close()
        raise ConfigError(f"{who} cannot listen on {host}:{port}: {exc}") from None
    return sock


class FrameServer:
    """Accepts connections on ``listener``, or without one on a socket it
    binds at host:port; reads one frame each, hands it off, acks, and then
    runs the callable the handler returned, if any."""

    def __init__(self, host: str, port: int, handler, listener: socket.socket | None = None):
        self._handler = handler
        self._sock = listen(host, port, "a frame server") if listener is None else listener
        self.host, self.port = self._sock.getsockname()[:2]
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        # Shutting the listening socket down fails the blocked accept() at
        # once, so stopping never waits for a connection or a timeout. A
        # shutdown acts in every process that holds the socket; by the time
        # a forked node stops, no other process holds its listener, since
        # tcp_cluster closes every other copy right after the fork.
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


class NodeJob(NamedTuple):
    """The job a node serves, as the master held it when it forked: its
    spec, whether slaves go home as result messages, the master's id, and
    the address of every node, the master's too."""

    spec: JobSpec
    results_only: bool
    master: NodeId
    addresses: dict[NodeId, tuple[str, int]]


class NodeProcess:
    """The in-process half of one sensor node: server, hosting, routing,
    serving ``listener``. A node with no ``job`` hosts nothing."""

    def __init__(self, node: SensorNode, listener: socket.socket, master_addr: tuple[str, int], job: NodeJob | None = None):
        self.node = node
        self.job = job
        self._registration: RegisterJob | None = None
        self._seen: set[tuple[int, int, int]] = set()
        self._lock = threading.Lock()
        self._hosting = threading.Lock()
        # Every peer's address, the master's also under the name "master".
        self._peers = TcpTransport({**(job.addresses if job else {}), "master": master_addr})
        self.shutdown = threading.Event()
        self.server = FrameServer(*listener.getsockname()[:2], self._on_frame, listener)

    # -- lifecycle --

    def run_until_shutdown(self) -> int:
        """Announce the node, and whether its heap holds a record for its
        job's selector (the empty one, with no job), then serve until
        shutdown; the exit code. A node that cannot announce itself, after
        the retry policy, exits with code 1, whose exit the master learns
        of at once."""
        selector = self.job.spec.task.input_selector if self.job else b""
        ready = NodeReady(self.node.id, self.server.host, self.server.port, self.node.heap.total_bytes, self.node.dropped, not self.node.is_empty(selector))
        self.server.start()
        code = 0
        if self._tell_master(ready):
            self.shutdown.wait()
        else:
            logger.error("node %s could not tell the master %r; exiting", self.node.id, ready.kind)
            code = 1
        self.server.stop()
        return code

    # -- frame handling --

    def _on_frame(self, frame: bytes):
        """FrameServer handler; returns what runs after the ack: the hosting
        step of an accepted envelope, or the shutdown. A frame that does not
        decode, or that a node does not take (a result message, or a control
        kind sent to the master), raises, unacked."""
        value = decode_frame(frame)
        if isinstance(value, Agent):
            return self._accept_envelope(value, len(frame))
        if isinstance(value, ResultMessage):
            raise DecodeError(f"node {self.node.id} takes no result message")
        return self._on_control(value)

    def _on_control(self, control: ControlFrame):
        if isinstance(control, RegisterJob):
            if self.job is None or control.job_id != self.job.spec.job_id:
                raise DecodeError(f"node {self.node.id} takes no {control.kind} frame for job {control.job_id}")
            self._registration = control
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
        return lambda: self._host_and_forward(agent)

    def _host_and_forward(self, agent: Agent) -> None:
        """Host the agent and send it on; one agent at a time per node."""
        with self._hosting:
            reg = self._registration
            if reg is None or reg.job_id != agent.job_id:
                logger.error("node %s has no registration for job %s", self.node.id, agent.job_id)
                self._tell_master(SlaveFailed(agent.id, agent.job_id, "job not registered at node"))
                return

            route = reg.routes.get(agent.id, ())
            agent, nxt, message = host_and_route(self.node, agent, self.job.spec, route, self.job.master, self.job.results_only)
            payload = message.encode() if message is not None else pack(agent)
            if not self._send(self._peers, nxt, payload):
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
        return self._send(self._peers, "master", pack_control(frame))


def serve(node_id: int, listener: socket.socket, data_file: str, master_addr: tuple[str, int], job: NodeJob | None = None, mem_limit=1 << 30) -> int:
    """Run one node on ``listener`` in this process, logging to stderr:
    load the data file (none when empty), announce whether it holds a
    record for the selector of ``job``, serve ``job`` until shutdown; the
    exit code. With no job the node answers for the empty selector and
    hosts nothing."""
    logging.basicConfig(
        level=os.environ.get("LOCOMAP_LOG", "INFO").upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        force=True,
    )
    node = SensorNode(id=node_id, mem_bytes_limit=mem_limit)
    try:
        if data_file:
            stored = node.ingest(load_records_tsv(data_file))
            logger.info("node %s ingested %d records (%d bytes, %d dropped)", node.id, stored, node.heap.total_bytes, node.dropped)
        return NodeProcess(node, listener, master_addr, job).run_until_shutdown()
    except LocomapError as exc:
        logger.error("node %s aborting: %s", node_id, exc)
    except Exception:
        logger.exception("node %s crashed", node_id)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="locomap-node", description="Run one sensor node process")
    parser.add_argument("--node-id", type=int, action="append", required=True, help="the one node this process serves")
    parser.add_argument("--master", required=True, help="host:port of the master listener")
    parser.add_argument("--data-file", default="", help="TSV records to ingest at startup")
    args = parser.parse_args(argv)
    if len(args.node_id) > 1:
        parser.error("give --node-id once: a process serves one node")
    host, _, master_port = args.master.partition(":")
    return serve(args.node_id[0], listen("127.0.0.1", 0, f"node {args.node_id[0]}"), args.data_file, (host, int(master_port)))


if __name__ == "__main__":
    # Skip interpreter finalization, as a node forked by the master does.
    code = main()
    logging.shutdown()
    os._exit(code)
