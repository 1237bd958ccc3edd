"""Master-side supervision for TCP mode.

The master (this process) starts one launcher process, which forks a
node process per sensor node. The master waits for the nodes to announce
themselves, registers the job everywhere, injects the slaves, and then
collects whatever comes back: arriving agents, remote result messages,
failure notices and forwarding stats. Byte accounting matches the
simulator's: envelope bytes for every hop plus result message bytes;
control traffic is not data-plane and is not counted.
"""

from __future__ import annotations

import contextlib
import logging
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .agents import LifecycleCallbacks
from .envelope import pack, unpack
from .errors import ConfigError, DecodeError, EnvelopeError, TransportFailure
from .orchestration import (
    JobResult,
    JobSpec,
    ResultMessage,
    SlaveReport,
    decode_result,
    finish_job,
    home_message,
    plan_job,
    send_with_retry,
)
from .registry import DEFAULT_REGISTRY
from .tcp_node import FrameServer, JobRegistration, classify_frame, decode_control, encode_control
from .transport import TcpTransport, Topology

# perfbench's tracer patches these names here as well as in orchestration,
# whose globals the job code actually calls.
from .orchestration import aggregate, retry_policy  # noqa: F401
from .registry import encode_partial  # noqa: F401

logger = logging.getLogger("locomap.tcp_cluster")


@dataclass
class _SlaveState:
    """One slave as the master sees it.

    ``hops`` maps a hop number to the envelope bytes sent on that hop. The
    number is the slave's itinerary length when it left: 0 for the
    master's dispatch, then one more per node visited. Keying by hop makes
    a repeated stat count once and lets a failed hop be taken back.
    ``holder`` is where the last counted hop went.
    """

    agent_id: int
    partition: tuple
    hops: dict[int, int] = field(default_factory=dict)
    holder: int | None = None
    message: ResultMessage | None = None
    message_bytes: int = 0
    fail_reason: str | None = None

    @property
    def resolved(self) -> bool:
        return self.message is not None or self.fail_reason is not None

    def deliver(self, message: ResultMessage, nbytes: int) -> None:
        self.message = message
        self.message_bytes = nbytes

    def report(self) -> SlaveReport:
        return SlaveReport(
            agent_id=self.agent_id,
            nodes=self.partition,
            delivered=self.message is not None,
            migrations=len(self.hops),
            bytes_sent=sum(self.hops.values()) + self.message_bytes,
            fail_reason=self.fail_reason,
        )


def _watch_exit(launcher: subprocess.Popen, events: queue.Queue) -> None:
    """Block until the launcher exits, then report it on ``events``."""
    code = launcher.wait()
    events.put(encode_control({"type": "launcher_exited", "code": code}))


def _await_ready(events: queue.Queue, expected: list[int], deadline: float):
    """Wait for every node's ready announcement; returns (addresses, raw_bytes).

    A node, or the launcher, that exits first fails the wait at once.
    """
    addresses: dict[int, tuple[str, int]] = {}
    raw_bytes = 0
    waiting = set(expected)
    while waiting:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ConfigError(f"nodes {sorted(waiting)} never announced themselves")
        try:
            frame = events.get(timeout=remaining)
        except queue.Empty:
            continue
        if classify_frame(frame) != "control":
            logger.warning("unexpected frame before the cluster was ready; dropping it")
            continue
        doc = decode_control(frame)
        if doc.get("type") == "node_exited":
            raise ConfigError(f"node {doc['node']} exited with code {doc['code']} before the cluster was ready")
        if doc.get("type") == "launcher_exited":
            raise ConfigError(f"the node launcher exited with code {doc['code']} before the cluster was ready")
        if doc.get("type") != "node_ready":
            logger.warning("unexpected control %r before the cluster was ready", doc.get("type"))
            continue
        node = int(doc["node"])
        addresses[node] = (doc["host"], int(doc["port"]))
        raw_bytes += int(doc.get("heap_bytes", 0))
        waiting.discard(node)
        logger.info("node %s ready at %s:%s (%s heap bytes)", node, doc["host"], doc["port"], doc.get("heap_bytes"))
    return addresses, raw_bytes


def _collect(events: queue.Queue, states: dict[int, "_SlaveState"], callbacks, combine, deadline: float) -> None:
    """Consume events until every slave has resolved or the deadline passes.

    A node sends a hop's ``forwarded`` stat, and waits for its ack, before
    it makes the hop, so every stat of a slave is queued here ahead of the
    envelope or result message that resolves it. Returning at the last
    resolution therefore loses no stat. A ``slave_failed`` takes back the
    stat of the hop it names, and every frame for a slave that has already
    resolved is ignored, so repeated and late frames change nothing.

    A ``node_exited`` fails every unresolved slave that the node holds.
    The launcher reports an exit only once the node is gone, so every
    frame the node had acked, and every stat it sent, is queued ahead of
    the report. One case goes undetected until the deadline: a node that
    dies between its acked stat and the forward, since the stat has
    already moved the slave to the next node.
    """

    def pending(agent_id: int) -> "_SlaveState | None":
        state = states.get(agent_id)
        if state is None:
            logger.warning("frame for unknown agent %s", agent_id)
            return None
        if state.resolved:
            logger.info("ignoring a frame for agent %s, which has already resolved", agent_id)
            return None
        return state

    def handle(frame: bytes) -> None:
        kind = classify_frame(frame)
        if kind == "envelope":
            try:
                agent = unpack(frame, callbacks)
            except EnvelopeError as exc:
                logger.error("rejected an arriving envelope: %s", exc)
                return
            state = pending(agent.id)
            if state is not None:
                # The slave is home; it hands its partial to the reducer locally.
                message = home_message(agent, combine)
                state.deliver(message, message.size_bytes)
        elif kind == "result":
            try:
                message = decode_result(frame)
            except DecodeError as exc:
                logger.error("discarding malformed result message: %s", exc)
                return
            state = pending(message.from_agent)
            if state is not None:
                state.deliver(message, len(frame))
        else:
            doc = decode_control(frame)
            kind = doc.get("type")
            if kind == "forwarded":
                state = pending(int(doc["agent_id"]))
                if state is not None:
                    state.hops[int(doc["hop"])] = int(doc["bytes"])
                    state.holder = int(doc["dst"])
            elif kind == "slave_failed":
                state = pending(int(doc["agent_id"]))
                if state is not None:
                    if doc.get("hop") is not None:
                        state.hops.pop(int(doc["hop"]), None)
                    state.fail_reason = doc.get("reason") or "remote failure"
            elif kind == "node_exited":
                for state in states.values():
                    if not state.resolved and state.holder == doc["node"]:
                        state.fail_reason = f"node {doc['node']} exited with code {doc['code']} while holding the slave"
            elif kind != "node_ready":
                logger.warning("ignoring control message %r", kind)

    while any(not s.resolved for s in states.values()):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            for state in states.values():
                if not state.resolved:
                    state.fail_reason = "timed out waiting for the slave"
            return
        try:
            frame = events.get(timeout=remaining)
        except queue.Empty:
            continue
        handle(frame)


def run_tcp_job(
    spec: JobSpec,
    topology: Topology,
    data_dir: str | Path | None,
    *,
    results_only: bool = False,
    host: str = "127.0.0.1",
    base_port: int = 0,
    timeout_s: float = 60.0,
    node_mem_limit: int = 1 << 30,
    job_module: str = "",
    log_dir: str | Path | None = None,
) -> JobResult:
    """Run one job over freshly forked local node processes.

    With ``base_port`` 0 every listener picks a free ephemeral port and
    the master learns node ports from their ready announcements; a
    nonzero value puts the master at base_port and node i at
    base_port+1+i. With ``log_dir``, node stderr goes there (one file per
    node) and the launcher's to ``launcher.log``. Data files are looked
    up as ``node_<id>.tsv`` under ``data_dir`` and loaded by the node
    processes themselves.
    """
    plan = plan_job(spec, topology, DEFAULT_REGISTRY)
    master, targets = plan.master, plan.targets

    events: queue.Queue = queue.Queue()
    server = FrameServer(host, base_port, events.put)
    server.start()
    launcher: subprocess.Popen | None = None
    transport: TcpTransport | None = None
    started = time.monotonic()
    deadline = started + timeout_s

    try:
        cmd = [sys.executable, "-m", "locomap.tcp_node", "--host", host, "--master", f"{server.host}:{server.port}"]
        cmd += ["--mem-limit", str(node_mem_limit), "--job-module", job_module]
        for index, node_id in enumerate(targets):
            data_file = Path(data_dir) / f"node_{node_id}.tsv" if data_dir is not None else None
            cmd += ["--node-id", str(node_id), "--port", str(0 if base_port == 0 else base_port + 1 + index)]
            cmd += ["--data-file", str(data_file) if data_file is not None and data_file.exists() else ""]
        pkg_root = str(Path(__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = pkg_root + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if log_dir is None:
            launcher = subprocess.Popen(cmd, stderr=subprocess.DEVNULL, env=env, start_new_session=True)
        else:
            Path(log_dir).mkdir(parents=True, exist_ok=True)
            with open(Path(log_dir) / "launcher.log", "w") as stderr:
                launcher = subprocess.Popen(cmd + ["--log-dir", str(log_dir)], stderr=stderr, env=env, start_new_session=True)
        watcher = threading.Thread(target=_watch_exit, args=(launcher, events), daemon=True)
        watcher.start()

        addresses, raw_bytes = _await_ready(events, list(targets), deadline)
        transport = TcpTransport({**addresses, master: (server.host, server.port)})

        callbacks = LifecycleCallbacks()

        def send(dst, payload):
            return send_with_retry(lambda: transport.send(master, dst, payload), time.sleep)

        registration = JobRegistration(
            spec=spec,
            results_only=results_only,
            master=master,
            addresses=dict(transport.addresses),
            partitions=plan.assignment,
        )
        control = encode_control(registration.register_control())
        for node_id in targets:
            _, fail = send(node_id, control)
            if fail is not None:
                raise ConfigError(f"could not register the job at node {node_id}: {fail}")

        states: dict[int, _SlaveState] = {}
        for slave in plan.slaves:
            state = _SlaveState(agent_id=slave.id, partition=plan.assignment[slave.id])
            states[slave.id] = state
            if not state.partition:
                # Nothing to visit: identity partial, handed over in place.
                message = home_message(slave, plan.combine)
                state.deliver(message, message.size_bytes)
                continue
            envelope = pack(slave, callbacks)
            _, fail = send(state.partition[0], envelope)
            if fail is None:
                state.hops[0] = len(envelope)
                state.holder = state.partition[0]
            else:
                logger.error("could not dispatch agent %s: %s", slave.id, fail)
                state.fail_reason = f"could not dispatch to node {state.partition[0]}"

        _collect(events, states, callbacks, plan.combine, deadline)
    finally:
        if launcher is not None:
            if transport is None:
                # The cluster never came up, so no node can be sent a shutdown
                # frame. SIGTERM stops the nodes; the launcher ignores it, reaps
                # them and exits. The group is gone when the launcher exited first.
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(launcher.pid, signal.SIGTERM)
            else:
                shutdown = encode_control({"type": "shutdown"})
                for node_id in targets:
                    try:
                        transport.send(master, node_id, shutdown)
                    except TransportFailure:
                        pass
            # The launcher reaps every node before it exits, so once it is
            # reaped here no node outlives the job and the nodes' CPU time
            # is in this process's RUSAGE_CHILDREN.
            watcher.join(timeout=5.0)
            if watcher.is_alive():
                os.killpg(launcher.pid, signal.SIGKILL)
                watcher.join()
        server.stop()

    wall_time_s = time.monotonic() - started
    messages = [state.message for state in states.values() if state.message is not None]
    return finish_job(plan, [state.report() for state in states.values()], messages, wall_time_s, raw_bytes)
