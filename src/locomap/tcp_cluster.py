"""Master-side supervision for TCP mode.

The master (this process) binds its own listener and every node's
before it forks anything, then forks one node process per sensor node
for each job, handing each its listener and the whole job (its spec,
``results_only``, the master's node id and every node's address),
reaps each in a watcher thread, and queues its exit as a ``NodeExited``
value. The master waits for the nodes to announce themselves, each
saying whether it holds data for the job's selector, plans the routes
from the announcements as the sim does, registers the job everywhere
with the one thing it learned after the fork (every slave's route),
injects the slaves, and then collects whatever comes back: arriving
agents, remote result messages, failure notices, arrival reports and
node exits.

One queue holds every event as a value. The master's listener decodes
each frame with ``tcp_node.decode_frame`` before it acks it and queues
what the frame holds, so a frame that does not decode is left unacked
and never queued; the watchers and a failed dispatch queue their
``NodeExited`` and ``SlaveFailed`` values directly, and the master's
own events never become bytes (``NodeExited`` is no control frame, so
no frame can report a node's exit). Collecting hands each value to
``orchestration.account``, which the simulator calls with the same
values; control traffic is not data-plane and is not counted.
"""

from __future__ import annotations

import contextlib
import logging
import os
import queue
import signal
import socket
import sys
import threading
import time
import traceback
from pathlib import Path

from .envelope import pack
from .errors import ConfigError, TransportFailure
from .orchestration import (
    JobResult,
    JobSpec,
    NodeExited,
    SlaveLedger,
    account,
    finish_job,
    open_ledgers,
    plan_job,
    plan_routes,
    send_with_retry,
    warn_dropped,
)
from .control import NodeReady, RegisterJob, Shutdown, SlaveFailed, pack_control
from .tcp_node import FrameServer, NodeJob, decode_frame, listen, serve
from .transport import TcpTransport, Topology

# perfbench's tracer patches these names here as well as in orchestration,
# whose globals the job code actually calls.
from .orchestration import aggregate, retry_policy  # noqa: F401
from .registry import encode_partial  # noqa: F401

logger = logging.getLogger("locomap.tcp_cluster")

# Every listener's address: each node is forked on this machine.
LOOPBACK = "127.0.0.1"


def _fork_node(node: tuple[int, str], listener: socket.socket, inherited: list[socket.socket], job: NodeJob, mem_limit: int, log_dir: str | Path | None) -> int:
    """Fork a process that runs ``tcp_node.serve`` for ``node``, a
    ``(node_id, data_file)``, on ``listener`` and ``job``; its pid. The
    child keeps every module, patch and registered function the master
    holds, and its stderr goes to ``node_<id>.log`` under ``log_dir``, or
    to the null device. It closes its copies of the ``inherited``
    listeners, the master's and those of the nodes forked after it:
    connections to a node that has exited are refused at once only if no
    live process holds its listener. Closing, not shutting down: a
    shutdown acts on the socket in every process that holds it."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    # The child never returns into the master's code: it always leaves
    # with os._exit, and an uncaught error prints its traceback and exits 1.
    code = 1
    try:
        # The master's SIGTERM handler (see cli.main) is not the node's: a
        # node sent SIGTERM dies of it.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        for sock in inherited:
            sock.close()
        log = os.open(os.path.join(log_dir, f"node_{node[0]}.log") if log_dir else os.devnull, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(log, 2)
        os.close(log)
        sys.stderr = open(2, "w", buffering=1, errors="backslashreplace", closefd=False)
        code = serve(node[0], listener, node[1], job.addresses[job.master], job, mem_limit)
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _watch_exit(pid: int, node_id: int, events: queue.Queue) -> None:
    """Reap node ``node_id``, then report its exit on ``events``."""
    _, status = os.waitpid(pid, 0)
    events.put(NodeExited(node_id, os.waitstatus_to_exitcode(status)))


def _listen(host: str, port: int, events: queue.Queue) -> FrameServer:
    """The master's listener. It queues the value each frame holds before
    it acks the frame, so a frame that does not decode is never queued or
    acked; any local process can connect to it."""
    return FrameServer(host, port, lambda frame: events.put(decode_frame(frame)), listen(host, port, "the master"))


def _next_event(events: queue.Queue, deadline: float):
    """The next event, or None once the deadline has passed."""
    try:
        return events.get(timeout=max(0.0, deadline - time.monotonic()))
    except queue.Empty:
        return None


def _await_each(events: queue.Queue, expected: tuple[int, ...], deadline: float) -> dict[int, NodeReady]:
    """Wait for the ``NodeReady`` frame of every expected node; returns
    the frames by node. A node that exits first fails the wait at once."""
    frames: dict[int, NodeReady] = {}
    while len(frames) < len(expected):
        event = _next_event(events, deadline)
        if event is None:
            raise ConfigError(f"nodes {sorted(set(expected) - set(frames))} sent no {NodeReady.kind} before the deadline")
        if isinstance(event, NodeExited):
            raise ConfigError(f"node {event.node} exited with code {event.code} before the cluster was ready")
        if type(event) is not NodeReady or event.node not in expected:
            logger.warning("unexpected %s before the cluster was ready", type(event).__name__)
            continue
        frames[event.node] = event
        logger.info("node %s: %s", event.node, event)
    return frames


def _collect(events: queue.Queue, ledgers: dict[int, SlaveLedger], combine, deadline: float) -> None:
    """Hand each event to ``account`` until every slave has resolved, or
    fail the unresolved ones when the deadline passes. A frame that did
    not decode never reached the queue: its sender, left without an ack,
    retries it or reports the slave failed.

    A node sends ``arrived``, and waits for its ack, before it acks the
    envelope, so every arrival of a slave is queued here ahead of
    anything the hop causes, and the holder is always the node that has
    the slave. Returning at the last resolution therefore loses no hop.
    The master queues a node's exit only once ``waitpid`` has reaped the
    node, so every arrival the node saw acked is queued ahead of its
    exit, whether the node died before it hosted the slave, while
    hosting, or before it forwarded it.
    """
    while not all(ledger.resolved for ledger in ledgers.values()):
        event = _next_event(events, deadline)
        if event is None:
            for ledger in ledgers.values():
                ledger.fail("timed out waiting for the slave")
            return
        account(ledgers, combine, event)


def run_tcp_job(
    spec: JobSpec,
    topology: Topology,
    data_dir: str | Path | None,
    *,
    results_only: bool = False,
    base_port: int = 0,
    timeout_s: float = 60.0,
    node_mem_limit: int = 1 << 30,
    log_dir: str | Path | None = None,
) -> JobResult:
    """Run one job over freshly forked local node processes. Each node
    resolves the job's function ids in the ``DEFAULT_REGISTRY`` it
    inherits at the fork, as ``run_job`` does in this process.

    The master binds every listener, on the loopback address, before it
    forks the first node, so a port that cannot be bound is a ConfigError
    naming its node and port, and no node is forked. With ``base_port`` 0
    every listener gets a free ephemeral port; a nonzero value puts the
    master at base_port and node i at base_port+1+i. With ``log_dir``,
    each node's stderr goes to ``node_<id>.log`` there. Data files are
    looked up as ``node_<id>.tsv`` under ``data_dir`` and loaded by the
    node processes themselves. A topology with a lossy link is a
    ConfigError, since TCP mode drops no sends.
    """
    plan = plan_job(spec, topology)
    lossy = next((link for link in topology.links.values() if link.failure_prob), None)
    if lossy is not None:
        raise ConfigError(f"TCP mode cannot drop sends, but link {lossy.src} -> {lossy.dst} has failure_prob {lossy.failure_prob}")
    master, targets = plan.master, plan.targets

    events: queue.Queue = queue.Queue()
    server = _listen(LOOPBACK, base_port, events)
    listeners: dict[int, socket.socket] = {}  # the master's copy of each node's, until it forks the node
    pids: dict[int, int] = {}  # node ids by pid
    watchers: dict[int, threading.Thread] = {}
    transport: TcpTransport | None = None
    started = time.monotonic()
    deadline = started + timeout_s

    try:
        for index, node_id in enumerate(targets):
            listeners[node_id] = listen(LOOPBACK, 0 if base_port == 0 else base_port + 1 + index, f"node {node_id}")
        addresses = {n: listener.getsockname()[:2] for n, listener in listeners.items()} | {master: (server.host, server.port)}
        job = NodeJob(spec, results_only, master, addresses)
        if log_dir is not None:
            Path(log_dir).mkdir(parents=True, exist_ok=True)
        try:
            for node_id in targets:
                data_file = Path(data_dir) / f"node_{node_id}.tsv" if data_dir is not None else None
                node = (node_id, str(data_file) if data_file is not None and data_file.exists() else "")
                # Forked before any thread of this job starts; the listening
                # sockets already queue the nodes' connections. The master
                # closes its copy of the node's listener once it has forked.
                with listeners.pop(node_id) as listener:
                    pids[_fork_node(node, listener, [server._sock, *listeners.values()], job, node_mem_limit, log_dir)] = node_id
        finally:
            # Every forked node gets its watcher, also when a later fork failed.
            for pid, node_id in pids.items():
                watchers[pid] = threading.Thread(target=_watch_exit, args=(pid, node_id, events), daemon=True)
                watchers[pid].start()
        server.start()

        ready = _await_each(events, targets, deadline)
        raw_bytes = sum(frame.heap_bytes for frame in ready.values())
        warn_dropped({n: ready[n].dropped for n in targets})
        transport = TcpTransport(addresses)

        def send(dst, payload):
            return send_with_retry(lambda: transport.send(master, dst, payload), time.sleep)

        # Heaps do not change during a job, so the ready frames fix every
        # route; register_job, carrying the routes, is the last control
        # frame before dispatch.
        routes = plan_routes(plan.assignment, lambda n: ready[n].has_data)
        registration = pack_control(RegisterJob(spec.job_id, routes))
        for node_id in targets:
            _, fail = send(node_id, registration)
            if fail is not None:
                raise ConfigError(f"could not register the job at node {node_id}: {fail}")

        ledgers = open_ledgers(plan, routes)
        for slave in plan.slaves:
            route = routes[slave.id]
            if not route:
                continue
            _, fail = send(route[0], pack(slave))
            if fail is not None:
                # Queued behind any arrival the node reported before it failed.
                logger.error("could not dispatch agent %s: %s", slave.id, fail)
                events.put(SlaveFailed(slave.id, spec.job_id, f"could not dispatch to node {route[0]}"))

        _collect(events, ledgers, plan.combine, deadline)
    finally:
        for listener in listeners.values():  # of nodes never forked
            listener.close()
        if transport is not None:
            shutdown = pack_control(Shutdown())
            for node_id in targets:
                with contextlib.suppress(TransportFailure):
                    transport.send(master, node_id, shutdown)
        # Nodes sent a shutdown frame have 5 s to exit; if the cluster never
        # came up, none could be sent one. A node still running is killed: it
        # holds nothing it must save, and SIGKILL cannot be ignored.
        stop_by = time.monotonic() + (0.0 if transport is None else 5.0)
        for watcher in watchers.values():
            watcher.join(timeout=max(0.0, stop_by - time.monotonic()))
        # Every node is reaped before this returns, so none outlives the job
        # and the nodes' CPU time is in this process's RUSAGE_CHILDREN.
        for pid, watcher in watchers.items():
            if watcher.is_alive():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            watcher.join()
        server.stop()

    return finish_job(plan, ledgers.values(), time.monotonic() - started, raw_bytes)
