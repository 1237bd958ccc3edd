import contextlib
import importlib
import logging
import os
import queue
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

import locomap as lm
from locomap import AgentRole, cli, orchestration, tcp_cluster, tcp_node
from locomap.orchestration import SlaveLedger, account
from locomap.tcp_cluster import NodeExited, _await_each, _collect, _listen
from locomap.control import (
    CONTROL_MAGIC,
    Arrived,
    NodeReady,
    RegisterJob,
    Shutdown,
    SlaveFailed,
    decode_control,
    encode_control,
    pack_control,
    unpack_control,
)
from locomap.tcp_node import FrameServer, NodeJob, NodeProcess, decode_frame, listen
from locomap.transport import write_frame

from helpers import process_running, wordcount_reference


class TestFrameClassification:
    def test_envelope_control_result(self):
        agent = lm.Agent(id=1, role=AgentRole.SLAVE, job_id=1)
        message = lm.ResultMessage(from_agent=5, partial=b"x")
        assert decode_frame(lm.pack(agent)) == agent
        assert decode_frame(encode_control({"type": "shutdown"})) == Shutdown()
        assert decode_frame(message.encode()) == message

    def test_control_codec_roundtrip(self):
        doc = {"type": "node_ready", "node": 3, "port": 1234}
        assert decode_control(encode_control(doc)) == doc


# One frame of every kind and its bytes on the wire. The register_job frame
# holds agents 12 and 13 and their routes over nodes 2 and 11.
CONTROL_FRAMES = {
    "node_ready": (
        NodeReady(node=1, host="127.0.0.1", port=9001, heap_bytes=35, dropped=2, has_data=True),
        b'LCTL{"dropped": 2, "has_data": true, "heap_bytes": 35, "host": "127.0.0.1", "node": 1, "port": 9001, "type": "node_ready"}',
    ),
    "register_job": (
        RegisterJob(job_id=9, routes={12: (2, 11), 13: ()}),
        b'LCTL{"job_id": 9, "routes": {"12": [2, 11], "13": []}, "type": "register_job"}',
    ),
    "arrived": (
        Arrived(agent_id=12, job_id=9, hop=1, bytes=55, node=11),
        b'LCTL{"agent_id": 12, "bytes": 55, "hop": 1, "job_id": 9, "node": 11, "type": "arrived"}',
    ),
    "slave_failed": (
        SlaveFailed(agent_id=12, job_id=9, reason="could not forward to node 11"),
        b'LCTL{"agent_id": 12, "job_id": 9, "reason": "could not forward to node 11", "type": "slave_failed"}',
    ),
    "shutdown": (Shutdown(), b'LCTL{"type": "shutdown"}'),
}

# Frames no kind accepts.
MALFORMED_CONTROLS = {
    "not-json": b"LCTL{not json",
    "json-list": b'LCTL[{"type": "shutdown"}]',
    "unknown-type": encode_control({"type": "job_done", "job_id": 4}),
    # The has-data round's two kinds are gone: each node says so in its node_ready.
    "unknown-type-query-data": b'LCTL{"job_id": 4, "selector_hex": "74656d702f", "type": "query_data"}',
    "unknown-type-has-data": b'LCTL{"has_data": true, "job_id": 4, "node": 2, "type": "has_data"}',
    "missing-field": encode_control({"type": "arrived", "agent_id": 10, "job_id": 4, "hop": 0, "bytes": 40}),
    "extra-field": encode_control({"type": "shutdown", "now": True}),
    "bool-for-int": encode_control({"type": "arrived", "agent_id": 10, "job_id": 4, "hop": True, "bytes": 40, "node": 1}),
    "list-for-str": encode_control({"type": "slave_failed", "agent_id": 10, "job_id": 4, "reason": ["gave up"]}),
    "route-not-a-list": CONTROL_FRAMES["register_job"][1].replace(b'"13": []', b'"13": "2"'),
    "route-key-not-an-agent-id": CONTROL_FRAMES["register_job"][1].replace(b'"12": [', b'"x": ['),
    # Only the form str(int) writes reads as an int key, so no two keys read as one id.
    "route-key-with-a-leading-zero": CONTROL_FRAMES["register_job"][1].replace(b'"12": [', b'"012": ['),
    "route-key-a-non-ascii-digit": CONTROL_FRAMES["register_job"][1].replace(b'"13": [', '"١٣": ['.encode()),
    "route-key-over-the-int-digit-limit": CONTROL_FRAMES["register_job"][1].replace(b'"13": [', b'"' + b"1" * 5000 + b'": ['),
    # json would keep the last of two equal keys.
    "repeated-field": CONTROL_FRAMES["register_job"][1].replace(b'"job_id": 9', b'"job_id": 9, "job_id": 5'),
    "repeated-route-key": CONTROL_FRAMES["register_job"][1].replace(b'"13": []', b'"12": []'),
    # The registration that carried every node's address: the master binds
    # every listener before it forks, so each node holds them from the fork.
    "register-job-with-addresses": b'LCTL{"addresses": {"0": ["127.0.0.1", 9000], "2": ["127.0.0.1", 9002], "11": ["127.0.0.1", 9011]}, '
    b'"job_id": 9, "routes": {"12": [2, 11], "13": []}, "type": "register_job"}',
    # The registration that carried the job's spec: each node now holds the job from the fork.
    "register-job-with-its-spec": b'LCTL{"addresses": {"0": ["127.0.0.1", 9000], "2": ["127.0.0.1", 9002], "11": ["127.0.0.1", 9011]}, '
    b'"combine": "sum-by-key", "job_id": 9, "map_fn_id": "wordcount-map", "master": 0, "reduce_fn_id": "identity", '
    b'"results_only": true, "routes": {"12": [2, 11], "13": []}, "selector_hex": "74656d702f", "type": "register_job"}',
    # Only the master's own watchers report a node's exit, as a value.
    "node-exited": encode_control({"type": "node_exited", "node": 2, "code": 0}),
}


def flip_bit(frame: bytes, at: int) -> bytes:
    flipped = bytearray(frame)
    flipped[at] ^= 0x01
    return bytes(flipped)


# Frames that do not decode: every malformed control frame, and an envelope
# and a result message with one bit of their CRC-32 flipped.
PARTIAL = lm.encode_partial({"a": 1})
UNDECODABLE = {
    **MALFORMED_CONTROLS,
    # The envelope's CRC-32 ends the frame.
    "envelope-crc": flip_bit(lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4, itinerary=(1,), payload=PARTIAL)), -1),
    # The partial's CRC-32 follows the agent id and the length.
    "result-crc": flip_bit(lm.ResultMessage(from_agent=10, partial=PARTIAL).encode(), 12),
}


def rejections(caplog) -> list:
    """Each error record as (its first words, its exc_info)."""
    return [(r.getMessage().split(":")[0], r.exc_info) for r in caplog.records if r.levelno >= logging.ERROR]


class TestControlCodec:
    @pytest.mark.parametrize("frame, wire", CONTROL_FRAMES.values(), ids=CONTROL_FRAMES)
    def test_every_kind_has_fixed_bytes_and_round_trips(self, frame, wire):
        assert frame.kind == decode_control(wire)["type"]
        assert pack_control(frame) == wire
        assert unpack_control(wire) == frame

    @pytest.mark.parametrize("frame", MALFORMED_CONTROLS.values(), ids=MALFORMED_CONTROLS)
    def test_malformed_frame_is_a_decode_error(self, frame):
        with pytest.raises(lm.DecodeError):
            unpack_control(frame)

    @pytest.mark.parametrize("frame", UNDECODABLE.values(), ids=UNDECODABLE)
    def test_master_drops_a_malformed_frame_with_one_line(self, frame, caplog):
        # The master's own listener, over a socket: the frame is neither
        # acked nor queued, and the next frame is.
        events: queue.Queue = queue.Queue()
        server = _listen("127.0.0.1", 0, events)
        server.start()
        try:
            transport = lm.TcpTransport({0: (server.host, server.port)})
            with pytest.raises(lm.TransportFailure, match="closed without acknowledging"):
                transport.send(1, 0, frame)
            assert rejections(caplog) == [("rejected a frame", None)]
            transport.send(1, 0, pack_control(Shutdown()))
            assert drain(events, 1) == [Shutdown()]
            assert events.empty()
        finally:
            server.stop()

    def test_node_leaves_every_malformed_frame_unacked(self, master_inbox, caplog):
        server, events = master_inbox
        proc = start_node(lm.SensorNode(id=1), server)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            for frame in UNDECODABLE.values():
                with pytest.raises(lm.TransportFailure, match="closed without acknowledging"):
                    transport.send(0, 1, frame)
            assert rejections(caplog) == [("rejected a frame", None)] * len(UNDECODABLE)
            assert not proc.shutdown.is_set()
            assert events.empty()
            transport.send(0, 1, pack_control(Shutdown()))
            assert proc.shutdown.wait(10.0)
        finally:
            proc.shutdown.set()
            proc.server.stop()


    def test_node_leaves_every_frame_it_does_not_take_unacked(self, master_inbox, caplog):
        server, events = master_inbox
        proc = start_node(lm.SensorNode(id=1), server)
        not_taken = {f"{kind} frame": CONTROL_FRAMES[kind][1] for kind in ("node_ready", "arrived", "slave_failed")}
        not_taken["result message"] = lm.ResultMessage(from_agent=10, partial=PARTIAL).encode()
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            for frame in not_taken.values():
                with pytest.raises(lm.TransportFailure, match="closed without acknowledging"):
                    transport.send(0, 1, frame)
            rejected = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert rejected == [f"rejected a frame: DecodeError: node 1 takes no {what}" for what in not_taken]
            assert events.empty()
            transport.send(0, 1, pack_control(Shutdown()))
            assert proc.shutdown.wait(10.0)
        finally:
            proc.shutdown.set()
            proc.server.stop()


@pytest.fixture
def master_inbox():
    events: queue.Queue = queue.Queue()
    server = FrameServer("127.0.0.1", 0, events.put)
    server.start()
    yield server, events
    server.stop()


def start_node(node, master_server, job=None, listener=None):
    proc = NodeProcess(node, listener or listen("127.0.0.1", 0, "the node"), (master_server.host, master_server.port), job)
    proc.server.start()
    return proc


def start_job_node(node, master_server, routes, results_only=False, others=None):
    """A node forked with wordcount job 4 of master 0 and the addresses of
    the master, the node and ``others``, and that job's registration:
    ``routes``."""
    listener = listen("127.0.0.1", 0, "the node")
    addresses = {0: (master_server.host, master_server.port), node.id: listener.getsockname()[:2], **(others or {})}
    proc = start_node(node, master_server, NodeJob(lm.builtin_job("wordcount", job_id=4), results_only, 0, addresses), listener)
    try:
        lm.TcpTransport({node.id: addresses[node.id]}).send(0, node.id, pack_control(RegisterJob(4, routes)))
    except BaseException:
        proc.server.stop()
        raise
    return proc


def drain(events, n, timeout=10.0):
    return [events.get(timeout=timeout) for _ in range(n)]


class TestNodeProcess:
    def test_hosts_then_forwards_the_agent_home(self, master_inbox):
        server, events = master_inbox
        node = lm.SensorNode(id=1)
        node.ingest([(b"r", b"a b a")])
        proc = start_job_node(node, server, {10: (1,)})
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            dispatched = lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4))
            transport.send(0, 1, dispatched)

            # The arrival is acked by the master before the envelope is.
            arrived_frame, envelope = drain(events, 2)
            assert decode_control(arrived_frame) == {
                "type": "arrived", "agent_id": 10, "job_id": 4, "hop": 0, "bytes": len(dispatched), "node": 1,
            }
            agent = decode_frame(envelope)
            assert isinstance(agent, lm.Agent)
            assert agent.id == 10
            assert agent.itinerary == (1,)
            assert lm.decode_partial(agent.payload) == {"a": 2, "b": 1}
        finally:
            proc.shutdown.set()
            proc.server.stop()

    def test_results_only_ships_a_result_message(self, master_inbox):
        server, events = master_inbox
        node = lm.SensorNode(id=1)
        node.ingest([(b"r", b"x y")])
        proc = start_job_node(node, server, {10: (1,)}, results_only=True)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))
            arrived, frame = drain(events, 2)
            assert (decode_control(arrived)["type"], decode_control(arrived)["hop"]) == ("arrived", 0)
            message = decode_frame(frame)
            assert isinstance(message, lm.ResultMessage)
            assert message.from_agent == 10
            assert lm.decode_partial(message.partial) == {"x": 1, "y": 1}
        finally:
            proc.shutdown.set()
            proc.server.stop()

    @pytest.mark.parametrize("selector, expect", [(b"", True), (b"temp/", True), (b"hum/", False)])
    def test_node_ready_says_whether_the_heap_holds_the_selector(self, master_inbox, selector, expect):
        server, events = master_inbox
        node = lm.SensorNode(id=1)
        node.ingest([(b"temp/1", b"20")])
        job = NodeJob(lm.builtin_job("wordcount", job_id=4, selector=selector), False, 0, {})
        proc = NodeProcess(node, listen("127.0.0.1", 0, "the node"), (server.host, server.port), job)
        codes = []
        runner = threading.Thread(target=lambda: codes.append(proc.run_until_shutdown()))
        runner.start()
        try:
            (frame,) = drain(events, 1)
            assert decode_control(frame) == {
                "type": "node_ready", "node": 1, "host": proc.server.host, "port": proc.server.port,
                "heap_bytes": 8, "dropped": 0, "has_data": expect,
            }
        finally:
            proc.shutdown.set()
            runner.join(10.0)
        assert codes == [0]

    def test_unreachable_next_hop_reports_slave_failed(self, master_inbox):
        server, events = master_inbox
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        proc = start_job_node(lm.SensorNode(id=1), server, {10: (1, 2)}, others={2: ("127.0.0.1", dead_port)})
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))
            arrived, failure = (decode_control(f) for f in drain(events, 2, timeout=15.0))
            assert (arrived["type"], arrived["agent_id"], arrived["hop"], arrived["node"]) == ("arrived", 10, 0, 1)
            assert (failure["type"], failure["agent_id"]) == ("slave_failed", 10)
            assert failure["reason"] == "could not forward to node 2"
            assert "hop" not in failure
        finally:
            proc.shutdown.set()
            proc.server.stop()

    def test_a_forward_over_the_frame_cap_reports_slave_failed(self, master_inbox, monkeypatch, caplog):
        server, events = master_inbox
        node = lm.SensorNode(id=1)
        node.ingest([(b"r", b" ".join(b"w%d" % i for i in range(200)))])
        proc = start_job_node(node, server, {10: (1,)})
        # Control frames and the empty dispatched agent fit; the agent
        # carrying a 200-word partial home does not.
        monkeypatch.setattr(lm.transport, "MAX_FRAME", 1000)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))
            arrived, failure = (decode_control(f) for f in drain(events, 2, timeout=15.0))
            assert (arrived["type"], arrived["hop"]) == ("arrived", 0)
            assert (failure["type"], failure["agent_id"], failure["reason"]) == ("slave_failed", 10, "could not forward to node 0")
            # No retry can send a frame over the cap, so the node does not retry it.
            (reason,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert reason.startswith("node 1 could not send to node 0: gave up after 1 attempts: a frame of "), reason
        finally:
            proc.shutdown.set()
            proc.server.stop()

    def test_lost_ack_hosts_the_agent_once(self, master_inbox, monkeypatch):
        server, events = master_inbox
        node1 = lm.SensorNode(id=1)
        node1.ingest([(b"r", b"a b")])
        node2 = lm.SensorNode(id=2)
        node2.ingest([(b"s", b"a")])
        proc2 = start_job_node(node2, server, {10: (1, 2)})
        hosted = []
        host = node2.host
        monkeypatch.setattr(node2, "host", lambda agent, spec: hosted.append(agent.id) or host(agent, spec))

        # Node 2 is reached through a server that hands every frame to the
        # node but drops the connection before the first ack, so node 1
        # retries a forward that node 2 has already accepted. Node 2 hosts
        # what it accepted whether or not the ack got through.
        deliveries = []
        retried = threading.Event()

        def lose_first_ack(frame):
            then = proc2._on_frame(frame)
            deliveries.append(frame)
            if len(deliveries) == 1:
                threading.Thread(target=then, daemon=True).start()
                raise ConnectionAbortedError("first ack lost")
            retried.set()
            return then

        lossy = FrameServer("127.0.0.1", 0, lose_first_ack)
        lossy.start()
        proc1 = start_job_node(node1, server, {10: (1, 2)}, others={2: (lossy.host, lossy.port)})
        try:
            transport = lm.TcpTransport({1: (proc1.server.host, proc1.server.port)})
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))

            first, second, envelope = drain(events, 3)
            assert [(decode_control(f)["hop"], decode_control(f)["node"]) for f in (first, second)] == [(0, 1), (1, 2)]
            agent = lm.unpack(envelope)
            assert agent.itinerary == (1, 2)
            assert lm.decode_partial(agent.payload) == {"a": 2, "b": 1}

            # The repeat is dropped before its ack, so once node 1's retry
            # has been acked nothing more can come from it.
            assert retried.wait(10.0)
            assert len(deliveries) == 2 and deliveries[0] == deliveries[1]
            assert hosted == [10]
            assert events.empty()
        finally:
            for proc in (proc1, proc2):
                proc.shutdown.set()
                proc.server.stop()
            lossy.stop()

    def test_refused_arrival_leaves_the_envelope_unacked(self, monkeypatch):
        # A master that refuses every arrival: the node retries its arrived
        # control under the retry policy, then leaves the envelope unacked
        # and never hosts the agent. The sender's retry is reported afresh.
        events: queue.Queue = queue.Queue()

        def refuse_arrivals(frame):
            events.put(frame)
            if isinstance(decode_frame(frame), Arrived):
                raise ConnectionRefusedError("arrival refused")

        server = FrameServer("127.0.0.1", 0, refuse_arrivals)
        server.start()
        node = lm.SensorNode(id=1)
        node.ingest([(b"r", b"a")])
        hosted = []
        monkeypatch.setattr(node, "host", lambda agent, spec: hosted.append(agent.id))
        proc = start_job_node(node, server, {10: (1,)})
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            envelope = lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4))
            for _ in range(2):
                with pytest.raises(lm.TransportFailure, match="closed without acknowledging"):
                    transport.send(0, 1, envelope)
                attempts = [decode_control(f) for f in drain(events, 4)]  # 1 attempt, 3 retries
                assert [(d["type"], d["hop"]) for d in attempts] == [("arrived", 0)] * 4
            with pytest.raises(queue.Empty):
                events.get(timeout=1.0)
            assert hosted == []
        finally:
            proc.shutdown.set()
            proc.server.stop()
            server.stop()

    def test_concurrent_repeats_are_accepted_once(self, master_inbox):
        server, events = master_inbox
        node = lm.SensorNode(id=1)
        node.ingest([(b"r", b"a")])
        proc = start_job_node(node, server, {10: (1,)})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            envelope = lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4))
            senders = [threading.Thread(target=transport.send, args=(0, 1, envelope)) for _ in range(8)]
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(timeout=10.0)
                assert not sender.is_alive()

            arrived, home = drain(events, 2)
            assert decode_control(arrived)["hop"] == 0
            assert lm.unpack(home).itinerary == (1,)
            assert events.empty()
        finally:
            sys.setswitchinterval(interval)
            proc.shutdown.set()
            proc.server.stop()

    def test_unregistered_job_reports_failure(self, master_inbox):
        server, events = master_inbox
        proc = start_node(lm.SensorNode(id=1), server)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=404)))
            arrived, failed = (decode_control(f) for f in drain(events, 2))
            assert arrived["type"] == "arrived"
            assert (failed["type"], failed["reason"]) == ("slave_failed", "job not registered at node")
        finally:
            proc.shutdown.set()
            proc.server.stop()

    def test_refuses_a_registration_for_another_job(self, master_inbox, caplog):
        # The node was forked with job 4: job 5's registration is left
        # unacked and not in force, so job 5's slave fails at the node.
        server, events = master_inbox
        proc = start_job_node(lm.SensorNode(id=1), server, {10: (1,)})
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            with pytest.raises(lm.TransportFailure, match="closed without acknowledging"):
                transport.send(0, 1, pack_control(RegisterJob(5, {11: (1,)})))
            rejected = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert rejected == ["rejected a frame: DecodeError: node 1 takes no register_job frame for job 5"]
            transport.send(0, 1, lm.pack(lm.Agent(id=11, role=AgentRole.SLAVE, job_id=5)))
            arrived, failed = (decode_control(f) for f in drain(events, 2))
            assert (arrived["type"], arrived["job_id"]) == ("arrived", 5)
            assert (failed["type"], failed["agent_id"], failed["reason"]) == ("slave_failed", 11, "job not registered at node")
        finally:
            proc.shutdown.set()
            proc.server.stop()

    def test_a_node_without_a_job_refuses_every_registration(self, master_inbox, caplog):
        # The command-line form: has_data answers for the empty selector,
        # no registration is ever acked, and a slave fails at the node.
        server, events = master_inbox
        node = lm.SensorNode(id=1)
        node.ingest([(b"temp/1", b"20")])
        proc = NodeProcess(node, listen("127.0.0.1", 0, "the node"), (server.host, server.port))
        codes = []
        runner = threading.Thread(target=lambda: codes.append(proc.run_until_shutdown()))
        runner.start()
        try:
            (ready,) = drain(events, 1)
            assert decode_frame(ready) == NodeReady(1, proc.server.host, proc.server.port, 8, 0, True)
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            for job_id in (0, 1, 4):
                with pytest.raises(lm.TransportFailure, match="closed without acknowledging"):
                    transport.send(0, 1, pack_control(RegisterJob(job_id, {10: (1,)})))
            rejected = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert rejected == [f"rejected a frame: DecodeError: node 1 takes no register_job frame for job {n}" for n in (0, 1, 4)]
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))
            arrived, failed = (decode_control(f) for f in drain(events, 2))
            assert arrived["type"] == "arrived"
            assert (failed["type"], failed["reason"]) == ("slave_failed", "job not registered at node")
        finally:
            proc.shutdown.set()
            runner.join(10.0)
        assert codes == [0]

    def test_shutdown_is_set_only_after_the_ack(self, master_inbox):
        server, _ = master_inbox
        proc = start_node(lm.SensorNode(id=1), server)
        try:
            then = proc._on_control(Shutdown())
            # Setting it in the handler would let the node exit before it acks.
            assert not proc.shutdown.is_set()
            then()
            assert proc.shutdown.is_set()
        finally:
            proc.server.stop()


class TestMasterAccounting:
    def test_collect_keys_arrivals_by_hop_and_ignores_resolved_slaves(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        failing = SlaveLedger(agent_id=10, partition=(1, 2, 3))
        healthy = SlaveLedger(agent_id=11, partition=(3,))
        states = {10: failing, 11: healthy}

        late = lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4, itinerary=(1, 2), payload=lm.encode_partial({"a": 1}))
        result = lm.ResultMessage(from_agent=11, partial=lm.encode_partial({"b": 2}))
        events: queue.Queue = queue.Queue()
        for event in (
            Arrived(agent_id=10, job_id=4, hop=0, bytes=40, node=1),
            Arrived(agent_id=11, job_id=4, hop=0, bytes=40, node=3),
            Arrived(agent_id=10, job_id=4, hop=1, bytes=50, node=2),
            Arrived(agent_id=10, job_id=4, hop=1, bytes=50, node=2),  # repeated arrival
            SlaveFailed(agent_id=10, job_id=4, reason="could not forward to node 3"),
            late,  # arrives after the slave failed
            result,
        ):
            events.put(event)

        _collect(events, states, combine, time.monotonic() + 5.0)

        assert events.empty()
        failed = failing.report()
        assert failed.migrations == 2  # the dispatch and hop 1, once; hop 2 never arrived
        assert failed.bytes_sent == 40 + 50
        assert not failed.delivered
        assert failed.fail_reason == "could not forward to node 3"
        assert failing.message is None
        delivered = healthy.report()
        assert delivered.delivered and delivered.fail_reason is None
        assert delivered.bytes_sent == 40 + len(result.encode())
        reports = [failed, delivered]
        assert sum(r.delivered for r in reports) + sum(r.fail_reason is not None for r in reports) == len(states)

    def test_an_envelope_coming_home_counts_its_hop(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        state = SlaveLedger(agent_id=10, partition=(1,))
        home = lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4, itinerary=(1,), payload=lm.encode_partial({"a": 1}))
        events: queue.Queue = queue.Queue()
        events.put(Arrived(agent_id=10, job_id=4, hop=0, bytes=40, node=1))
        events.put(home)

        _collect(events, {10: state}, combine, time.monotonic() + 5.0)

        report = state.report()
        assert report.delivered
        assert report.migrations == 2
        # The partial is handed over in place at the master: no result message crossed a link.
        assert report.bytes_sent == 40 + len(lm.pack(home))

    def test_node_exit_fails_only_the_slaves_it_holds(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        moved_on = SlaveLedger(agent_id=10, partition=(1, 2))
        held = SlaveLedger(agent_id=11, partition=(1,))
        states = {10: moved_on, 11: held}
        events: queue.Queue = queue.Queue()
        for event in (
            Arrived(agent_id=10, job_id=4, hop=0, bytes=40, node=1),
            Arrived(agent_id=11, job_id=4, hop=0, bytes=40, node=1),
            Arrived(agent_id=10, job_id=4, hop=1, bytes=50, node=2),
            NodeExited(node=1, code=-9),
            lm.ResultMessage(from_agent=10, partial=lm.encode_partial({"a": 1})),
        ):
            events.put(event)

        _collect(events, states, combine, time.monotonic() + 5.0)

        assert held.fail_reason == "node 1 exited with code -9 while holding the slave"
        assert held.report().migrations == 1
        assert moved_on.fail_reason is None and moved_on.report().delivered

    def test_collect_ignores_events_it_does_not_account(self, caplog):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        state = SlaveLedger(agent_id=10, partition=(1,))
        events: queue.Queue = queue.Queue()
        for event in (
            NodeReady(node=1, host="127.0.0.1", port=1234, heap_bytes=5, dropped=0, has_data=True),
            Shutdown(),
            Arrived(agent_id=99, job_id=4, hop=0, bytes=40, node=1),  # no such slave
            SlaveFailed(agent_id=10, job_id=4, reason="gave up"),
        ):
            events.put(event)

        _collect(events, {10: state}, combine, time.monotonic() + 5.0)

        assert events.empty()
        assert state.fail_reason == "gave up"
        assert state.report().migrations == 0
        assert [r.getMessage() for r in caplog.records] == ["frame for unknown agent 99"]

    def test_await_each_skips_events_it_does_not_wait_for(self):
        events: queue.Queue = queue.Queue()
        expect = NodeReady(node=1, host="127.0.0.1", port=1234, heap_bytes=5, dropped=0, has_data=True)
        for event in (
            Arrived(agent_id=10, job_id=4, hop=0, bytes=40, node=1),
            NodeReady(node=7, host="127.0.0.1", port=1235, heap_bytes=5, dropped=0, has_data=True),
            lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4),
            expect,
        ):
            events.put(event)
        assert _await_each(events, (1,), time.monotonic() + 5.0) == {1: expect}
        assert events.empty()

    def test_await_each_names_the_silent_nodes_at_its_deadline(self):
        events: queue.Queue = queue.Queue()
        events.put(NodeReady(node=2, host="127.0.0.1", port=1234, heap_bytes=5, dropped=0, has_data=False))
        with pytest.raises(lm.ConfigError, match=r"^nodes \[1, 3\] sent no node_ready before the deadline$"):
            _await_each(events, (1, 2, 3), time.monotonic() + 0.2)

    def test_deadline_fails_the_unresolved_slaves(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        state = SlaveLedger(agent_id=10, partition=(1,), hops={0: 40})
        _collect(queue.Queue(), {10: state}, combine, time.monotonic())
        assert state.fail_reason == "timed out waiting for the slave"
        assert state.report().migrations == 1


def write_node_files(tmp_path, node_values):
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    for node_id, values in node_values.items():
        lines = b"".join(b"k%d\t%s\n" % (i, v) for i, v in enumerate(values))
        (data / f"node_{node_id}.tsv").write_bytes(lines)
    return data


def free_base_port(count: int) -> int:
    """A base port below the ephemeral range (32768 up, on Linux), so no
    connection takes one of its ports mid-test, whose ``count`` ports from
    it up can all be bound now."""
    while True:
        base = random.randrange(20000, 32768 - count)
        with contextlib.ExitStack() as held:
            try:
                for port in range(base, base + count):
                    held.enter_context(listen("127.0.0.1", port, "a probe"))
            except lm.ConfigError:
                continue
        return base


class TestRunTcpJob:
    def test_three_node_wordcount_matches_reference(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="locomap.transport")
        node_values = {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]}
        data_dir = write_node_files(tmp_path, node_values)
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        result = lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0, log_dir=tmp_path / "logs")
        all_vals = [v for vals in node_values.values() for v in vals]
        assert result.final == wordcount_reference(all_vals)
        assert result.partials_received == 3
        assert result.slaves_failed == 0
        assert result.migrations_total == 6  # out and back for each of 3 slaves
        assert result.raw_data_bytes == sum(len(b"k0") + len(v) for vals in node_values.values() for v in vals)

        # connection-per-migration: the master's own dispatch connections...
        master_connects = [r for r in caplog.records if "connection opened" in r.message]
        assert len(master_connects) >= 3
        # ...plus each node's forward connections, visible in its log file
        node_logs = "".join(p.read_text() for p in (tmp_path / "logs").glob("node_*.log"))
        assert node_logs.count("connection opened") >= 3

    def test_results_only_mode_agrees(self, tmp_path):
        node_values = {1: [b"x"], 2: [b"x y"]}
        data_dir = write_node_files(tmp_path, node_values)
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        result = lm.run_tcp_job(spec, topology, data_dir, results_only=True, timeout_s=30.0)
        assert result.final == {"x": 2, "y": 1}
        assert result.partials_received == 2
        assert result.migrations_total == 2  # only the outbound hops

    @pytest.mark.parametrize("results_only", [False, True])
    def test_counts_equal_the_sim_engine_on_every_run(self, tmp_path, results_only):
        node_values = {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]}
        data_dir = write_node_files(tmp_path, node_values)
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        cluster = lm.Cluster.from_topology(topology)
        for node_id in node_values:
            cluster.nodes[node_id].ingest(lm.load_records_tsv(data_dir / f"node_{node_id}.tsv"))
        expect = lm.run_job(spec, cluster, lm.SimTransport(topology), results_only=results_only)
        for _ in range(5):
            got = lm.run_tcp_job(spec, topology, data_dir, results_only=results_only, timeout_s=30.0)
            assert got.final == expect.final
            assert got.migrations_total == expect.migrations_total
            assert got.bytes_transferred_total == expect.bytes_transferred_total

    @pytest.mark.parametrize("results_only, data", [(False, lm.Agent), (True, lm.ResultMessage)])
    def test_the_master_hears_only_node_ready_arrived_and_data_frames(self, tmp_path, monkeypatch, results_only, data):
        # Every value the master's listener queues, and every control frame
        # the master sends: 12 control frames in all for 3 nodes.
        heard, told = [], []
        decode, send = tcp_cluster.decode_frame, lm.TcpTransport.send

        def hearing(frame):
            value = decode(frame)
            heard.append(value)
            return value

        def telling(transport, src, dst, payload, at=0.0):
            if payload[:4] == CONTROL_MAGIC:
                told.append(unpack_control(payload).kind)  # in the master only: a node appends to its own copy
            return send(transport, src, dst, payload, at)

        monkeypatch.setattr(tcp_cluster, "decode_frame", hearing)
        monkeypatch.setattr(lm.TcpTransport, "send", telling)
        data_dir = write_node_files(tmp_path, {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        result = lm.run_tcp_job(lm.builtin_job("wordcount", job_id=1), topology, data_dir, results_only=results_only, timeout_s=30.0)
        assert result.partials_received == 3
        assert sorted(type(value).__name__ for value in heard) == sorted(["NodeReady", "Arrived", data.__name__] * 3)
        assert all(value.has_data for value in heard if isinstance(value, NodeReady))
        assert told == ["register_job"] * 3 + ["shutdown"] * 3

    def test_runs_without_starting_an_interpreter(self, tmp_path, monkeypatch):
        def no_popen(*args, **kwargs):
            raise AssertionError("run_tcp_job started a subprocess")

        monkeypatch.setattr(subprocess, "Popen", no_popen)
        node_values = {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]}
        data_dir = write_node_files(tmp_path, node_values)
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        result = lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0)
        records = [r for n in node_values for r in lm.load_records_tsv(data_dir / f"node_{n}.tsv")]
        assert result.final == lm.sequential_oracle(spec.task, spec.combine, records)

    def test_a_job_module_imported_by_the_master_reaches_the_nodes(self, tmp_path, monkeypatch, process_registry):
        # Found through sys.path only: no PYTHONPATH names its directory, and
        # no node imports it; each forked node holds what the master imported.
        (tmp_path / "locomap_masteronly.py").write_text(
            "import locomap as lm\n"
            "\n"
            "def shout(key, value):\n"
            "    for word in value.split():\n"
            "        yield word.decode().upper(), 1\n"
            "\n"
            "lm.DEFAULT_REGISTRY.register_map('shout-wordcount', shout)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delenv("PYTHONPATH", raising=False)
        importlib.import_module("locomap_masteronly")
        data_dir = write_node_files(tmp_path, {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.JobSpec(job_id=1, task=lm.TaskDescriptor("shout-wordcount", "identity"), combine="sum-by-key")
        result = lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0)
        assert result.final == {"A": 2, "B": 3, "C": 2}

    def test_forks_before_any_thread_of_the_job_starts(self, tmp_path, monkeypatch):
        counts = []
        fork = os.fork

        def counting_fork():
            counts.append(threading.active_count())
            return fork()

        monkeypatch.setattr(tcp_cluster.os, "fork", counting_fork)
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"]})
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        before = threading.active_count()
        assert lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0).final == {"a": 1, "b": 1}
        assert counts == [before, before]  # one fork per node

    @pytest.mark.parametrize("offset, who", [(0, "the master"), (1, "node 1"), (2, "node 2")], ids=["master", "node-1", "node-2"])
    def test_a_master_port_in_use_is_a_config_error_and_forks_nothing(self, tmp_path, monkeypatch, offset, who):
        # The master binds its own listener and every node's before it forks.
        monkeypatch.setattr(tcp_cluster.os, "fork", lambda: pytest.fail("forked a node"))
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"]})
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        base = free_base_port(3)
        with socket.socket() as held:
            held.bind(("127.0.0.1", base + offset))
            held.listen()
            with pytest.raises(lm.ConfigError, match=f"^{who} cannot listen on 127.0.0.1:{base + offset}: "):
                lm.run_tcp_job(spec, topology, data_dir, base_port=base, timeout_s=30.0)

    def test_a_fixed_base_port_puts_node_i_at_base_plus_1_plus_i(self, tmp_path, monkeypatch):
        heard, decode = [], tcp_cluster.decode_frame
        monkeypatch.setattr(tcp_cluster, "decode_frame", lambda frame: heard.append(decode(frame)) or heard[-1])
        node_values = {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]}
        data_dir = write_node_files(tmp_path, node_values)
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        base = free_base_port(4)
        result = lm.run_tcp_job(lm.builtin_job("wordcount", job_id=1), topology, data_dir, base_port=base, timeout_s=30.0)
        assert result.final == wordcount_reference([v for values in node_values.values() for v in values])
        ready = [(value.node, value.host, value.port) for value in heard if isinstance(value, NodeReady)]
        # Node i, the i-th target counting from 0, listened at base+1+i.
        assert sorted(ready) == [(1, "127.0.0.1", base + 1), (2, "127.0.0.1", base + 2), (3, "127.0.0.1", base + 3)]

    def test_a_lossy_link_is_a_config_error_and_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tcp_cluster, "_listen", lambda *a: pytest.fail("listened"))
        monkeypatch.setattr(tcp_cluster.os, "fork", lambda: pytest.fail("forked a node"))
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"]})
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        topology.links[(2, 0)] = lm.SimLink(2, 0, bandwidth_bytes_per_s=1e6, failure_prob=0.25)
        spec = lm.builtin_job("wordcount", job_id=1)
        with pytest.raises(lm.ConfigError, match=r"^TCP mode cannot drop sends, but link 2 -> 0 has failure_prob 0.25$"):
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0)

    def test_master_as_target_is_rejected(self):
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1, target_nodes=[0, 1])
        with pytest.raises(lm.ConfigError, match="master"):
            lm.run_tcp_job(spec, topology, None)

    def test_unknown_target_is_rejected(self):
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1, target_nodes=[1, 7])
        with pytest.raises(lm.ConfigError, match=r"\[7\]"):
            lm.run_tcp_job(spec, topology, None)

    def test_bad_data_file_fails_fast_and_the_node_says_why(self, tmp_path):
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"], 3: [b"c"]})
        (data_dir / "node_2.tsv").write_bytes(b"k0\tb\n\tno key\n")
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.ConfigError, match=r"node 2 exited with code 1 before the cluster was ready"):
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0, log_dir=tmp_path / "logs")
        # Node 2's exit ends the wait at once; nodes 1 and 3 never got a
        # shutdown frame, so they are killed rather than waited on.
        assert time.monotonic() - started < 4
        log = (tmp_path / "logs" / "node_2.log").read_text()
        assert "node 2 aborting" in log and "node_2.tsv, line 2: empty record key" in log

    def test_a_node_log_that_cannot_be_opened_fails_fast(self, tmp_path):
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"]})
        (tmp_path / "logs" / "node_2.log").mkdir(parents=True)  # a directory where node 2's log goes
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.ConfigError, match=r"node 2 exited with code 1 before the cluster was ready"):
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0, log_dir=tmp_path / "logs")
        assert time.monotonic() - started < 4

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_a_node_slow_to_start_is_stopped_when_the_job_fails_early(self, tmp_path, monkeypatch):
        # The child of each process's third fork (node 3's, when the master
        # forks every node) sleeps before it starts; node 2 fails at once.
        seen, forks = [], {}
        fork = os.fork

        def slow_third_fork():
            caller = os.getpid()
            forks[caller] = forks.get(caller, 0) + 1
            pid = fork()
            if pid:
                seen.append(pid)
            elif forks[caller] == 3:
                time.sleep(1.0)
            return pid

        monkeypatch.setattr(tcp_cluster.os, "fork", slow_third_fork)
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"], 3: [b"c"]})
        (data_dir / "node_2.tsv").write_bytes(b"\tno key\n")
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.ConfigError, match="node 2 exited"):
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30)
        assert time.monotonic() - started < 2
        assert len(seen) == 3  # one fork per node
        assert [pid for pid in seen if process_running(pid)] == []

    def test_node_killed_mid_tour_fails_only_its_slave(self, tmp_path, process_registry):
        # A map function that kills its node process on a "die" record,
        # registered here before the master forks the nodes.
        def die_or_count(key, value):
            if value == b"die":
                os._exit(17)
            for word in value.split():
                yield word.decode(), 1

        process_registry.register_map("die-wordcount", die_or_count)

        node_values = {1: [b"a b", b"c"], 2: [b"a", b"die"], 3: [b"b b c"]}
        data_dir = write_node_files(tmp_path, node_values)
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.JobSpec(job_id=1, task=lm.TaskDescriptor("die-wordcount", "identity"), combine="sum-by-key")
        started = time.monotonic()
        result = lm.run_tcp_job(spec, topology, data_dir, timeout_s=30)
        # The node's exit report fails the slave at once, not at the deadline.
        assert time.monotonic() - started < 4

        assert (result.partials_received, result.slaves_failed, result.slave_count) == (2, 1, 3)
        survivors = [r for n in (1, 3) for r in lm.load_records_tsv(data_dir / f"node_{n}.tsv")]
        assert result.final == lm.sequential_oracle(spec.task, spec.combine, survivors)
        (killed,) = [r for r in result.slave_reports if r.nodes == (2,)]
        assert not killed.delivered
        assert killed.migrations == 1
        assert killed.fail_reason == "node 2 exited with code 17 while holding the slave"

    def test_a_node_sent_sigterm_dies_of_it_under_the_cli_handler(self, tmp_path, process_registry):
        # The master runs under the CLI's SIGTERM handler, which raises
        # SystemExit; a forked node resets SIGTERM to the default, so the
        # SIGTERM its map sends it kills it (code -15) instead of unwinding it.
        def terminate_self(key, value):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(30)
            yield from ()

        process_registry.register_map("sigterm-map", terminate_self)
        data_dir = write_node_files(tmp_path, {1: [b"a"]})
        topology = lm.Topology.full_mesh(0, [1], bandwidth_bytes_per_s=1e6)
        spec = lm.JobSpec(job_id=1, task=lm.TaskDescriptor("sigterm-map", "identity"), combine="sum-by-key")
        previous = signal.signal(signal.SIGTERM, cli._exit_on_signal)
        try:
            with pytest.raises(lm.AllSlavesFailed) as info:
                lm.run_tcp_job(spec, topology, data_dir, timeout_s=30)
        finally:
            signal.signal(signal.SIGTERM, previous)
        (report,) = info.value.result.slave_reports
        assert report.fail_reason == f"node 1 exited with code {-signal.SIGTERM} while holding the slave"

    def test_node_that_exits_computing_its_has_data_answer_fails_the_job_fast(self, tmp_path, monkeypatch):
        # Node 2 exits while it checks its heap for the job's selector, before
        # its node_ready. The master never calls is_empty; the nodes it forks
        # inherit the patch.
        is_empty = lm.SensorNode.is_empty

        def die_checking(self, selector=b""):
            if self.id == 2:
                os._exit(23)
            return is_empty(self, selector)

        monkeypatch.setattr(lm.SensorNode, "is_empty", die_checking)
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"], 3: [b"c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.ConfigError, match=r"node 2 exited with code 23 before the cluster was ready"):
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30)
        assert time.monotonic() - started < 4

    def test_node_whose_node_ready_is_refused_fails_the_job_fast(self, tmp_path, monkeypatch):
        # Node 2 finds the master refusing every attempt to deliver its
        # node_ready; the node gives up and exits 1.
        class Refusing:
            def send(self, src, dst, payload, at=0.0):
                raise lm.ConnectRefused("master refused the node_ready")

        send = NodeProcess._send

        def lose_node_ready(self, transport, dst, payload):
            if self.node.id == 2 and isinstance(decode_frame(payload), NodeReady):
                transport = Refusing()
            return send(self, transport, dst, payload)

        monkeypatch.setattr(NodeProcess, "_send", lose_node_ready)
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"], 3: [b"c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.ConfigError, match=r"node 2 exited with code 1 before the cluster was ready"):
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30)
        assert time.monotonic() - started < 4

    @pytest.mark.parametrize(
        "where, results_only, migrations",
        [
            ("accept", False, 0),  # on envelope accept, before the arrival is reported
            ("arrival_acked", False, 1),  # the master acked the arrival; the sender has no ack
            ("hosting", False, 1),
            ("send", False, 1),  # hosted, about to forward the envelope home
            ("send", True, 1),  # hosted, about to send the result message
        ],
    )
    def test_node_death_fails_its_slave_at_once(self, tmp_path, monkeypatch, where, results_only, migrations):
        # Node 2 exits at one step of its part of the protocol. The killed
        # slave counts only the hops that arrived.
        accept, host, send = NodeProcess._accept_envelope, NodeProcess._host_and_forward, NodeProcess._send

        def die_at(node, step):
            if node.node.id == 2 and step == where:
                os._exit(29)

        def wrapped_accept(self, agent, nbytes):
            die_at(self, "accept")
            then = accept(self, agent, nbytes)
            die_at(self, "arrival_acked")
            return then

        def wrapped_host(self, agent):
            die_at(self, "hosting")
            return host(self, agent)

        def wrapped_send(self, transport, dst, payload):
            if payload[:4] != CONTROL_MAGIC:
                die_at(self, "send")
            return send(self, transport, dst, payload)

        monkeypatch.setattr(NodeProcess, "_accept_envelope", wrapped_accept)
        monkeypatch.setattr(NodeProcess, "_host_and_forward", wrapped_host)
        monkeypatch.setattr(NodeProcess, "_send", wrapped_send)
        node_values = {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]}
        data_dir = write_node_files(tmp_path, node_values)
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        result = lm.run_tcp_job(spec, topology, data_dir, results_only=results_only, timeout_s=30)
        assert time.monotonic() - started < 4

        assert (result.partials_received, result.slaves_failed, result.slave_count) == (2, 1, 3)
        survivors = [r for n in (1, 3) for r in lm.load_records_tsv(data_dir / f"node_{n}.tsv")]
        assert result.final == lm.sequential_oracle(spec.task, spec.combine, survivors)
        (killed,) = [r for r in result.slave_reports if r.nodes == (2,)]
        assert not killed.delivered
        assert "node 2" in killed.fail_reason
        assert killed.migrations == migrations

    def test_a_peer_that_exits_after_its_node_ready_refuses_connections_at_once(self, tmp_path, monkeypatch):
        # Node 2 exits as node 1's forward of the one slave reaches it. No
        # process keeps a copy of node 2's listener, so node 1's retries are
        # refused at once instead of queueing in a backlog until they time
        # out, and node 1 reports the slave failed.
        accept = NodeProcess._accept_envelope

        def die_at_node_2(self, agent, nbytes):
            if self.node.id == 2:
                os._exit(31)
            return accept(self, agent, nbytes)

        monkeypatch.setattr(NodeProcess, "_accept_envelope", die_at_node_2)
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"], 3: [b"c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1, slave_count=1)
        started = time.monotonic()
        with pytest.raises(lm.AllSlavesFailed) as failed:
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30)
        assert time.monotonic() - started < 4
        (report,) = failed.value.result.slave_reports
        # Only the dispatch to node 1 arrived.
        assert (report.nodes, report.migrations, report.fail_reason) == ((1, 2, 3), 1, "could not forward to node 2")

    def test_a_forward_that_does_not_decode_fails_its_slave_at_once(self, tmp_path, monkeypatch):
        # The nodes flip one bit of the CRC-32 of every envelope they
        # forward; the master packs through tcp_cluster.pack, unpatched. The
        # master leaves each forward unacked, so each node gives it up and
        # reports the slave failed.
        pack = tcp_node.pack

        def corrupt_pack(agent, callbacks=None):
            frame = bytearray(pack(agent, callbacks))
            frame[-1] ^= 0x01  # the envelope's CRC-32 ends the frame
            return bytes(frame)

        monkeypatch.setattr(tcp_node, "pack", corrupt_pack)
        data_dir = write_node_files(tmp_path, {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.AllSlavesFailed) as failed:
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30)
        assert time.monotonic() - started < 4

        result = failed.value.result
        assert (result.partials_received, result.slaves_failed, result.slave_count) == (0, 3, 3)
        assert result.partials_received + result.slaves_failed == result.slave_count
        for report in result.slave_reports:
            assert not report.delivered
            assert report.fail_reason == "could not forward to node 0"
            assert report.migrations == 1  # the dispatch; the corrupt hop home never arrived

    def test_a_result_whose_partial_does_not_decode_fails_its_slave_at_once(self, tmp_path, monkeypatch):
        # Node 2 sends home a result message with a valid CRC-32 over a
        # partial that is not JSON. The master acks it; the slave's ledger
        # fails the slave when it is delivered.
        host_and_route = tcp_node.host_and_route

        def bad_partial(node, agent, spec, route, master, results_only):
            agent, nxt, message = host_and_route(node, agent, spec, route, master, results_only)
            if node.id == 2 and message is not None:
                message = lm.ResultMessage(message.from_agent, b"not json")
            return agent, nxt, message

        monkeypatch.setattr(tcp_node, "host_and_route", bad_partial)
        data_dir = write_node_files(tmp_path, {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        result = lm.run_tcp_job(spec, topology, data_dir, results_only=True, timeout_s=30)
        assert time.monotonic() - started < 4

        assert (result.partials_received, result.slaves_failed, result.slave_count) == (2, 1, 3)
        survivors = [r for n in (1, 3) for r in lm.load_records_tsv(data_dir / f"node_{n}.tsv")]
        assert result.final == lm.sequential_oracle(spec.task, spec.combine, survivors)
        (bad,) = [r for r in result.slave_reports if r.nodes == (2,)]
        assert not bad.delivered
        assert bad.fail_reason.startswith("malformed partial: ")
        assert "malformed partial" not in bad.fail_reason[len("malformed partial: "):]
        # The dispatch and the result message both crossed the wire.
        assert bad.migrations == 1
        assert bad.bytes_sent == lm.envelope_size(0) + lm.ResultMessage(bad.agent_id, b"not json").size_bytes

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    @pytest.mark.parametrize("bad_data", [False, True])
    def test_no_node_outlives_its_job(self, tmp_path, monkeypatch, bad_data):
        # Records each node's pid in the master, as the fork returns it.
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(tcp_cluster.os, "fork", recording_fork)
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"], 3: [b"c"]})
        if bad_data:
            (data_dir / "node_2.tsv").write_bytes(b"\tno key\n")
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        if bad_data:
            with pytest.raises(lm.ConfigError, match="node 2 exited"):
                lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0)
        else:
            assert lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0).final == {"a": 1, "b": 1, "c": 1}

        assert len(pids) == 3  # one per node
        assert [pid for pid in pids if process_running(pid)] == []


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def record_accepted_data_frames(patch, into_dir):
    """Make every ``FrameServer`` built from now on, in this process and in
    the nodes it forks, write the size of each envelope and result message
    its handler accepted to ``<into_dir>/<pid>``. The line is written before
    the frame is acked, so it is on disk before its sender can go on."""
    init = FrameServer.__init__

    def recording_init(server, host, port, handler, listener=None):
        def record(frame):
            then = handler(frame)
            if frame[:4] != CONTROL_MAGIC:
                with open(os.path.join(into_dir, str(os.getpid())), "a") as log:
                    log.write(f"{len(frame)}\n")
            return then

        init(server, host, port, record, listener)

    patch.setattr(FrameServer, "__init__", recording_init)


class TestRoutesMatchTheSimEngine:
    """TCP slaves skip the nodes that hold nothing for the selector, as
    sim slaves do, so each engine hands ``account`` the same values, and
    every count and every slave report is equal."""

    @pytest.fixture(params=["iot3", "iot8"])
    def node_set(self, request, tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(CONFIGS / "sample_data", data_dir)
        if request.param == "iot3":
            (data_dir / "node_2.tsv").write_bytes(b"")  # node 2 empty
        # iot8: nodes 4-8 have no data file
        return lm.Topology.from_file(CONFIGS / f"{request.param}.json"), data_dir

    @staticmethod
    def assert_engines_agree(spec, topology, data_dir, sim_sends, results_only=False):
        cluster = lm.Cluster.from_topology(topology)
        for path in data_dir.glob("node_*.tsv"):
            cluster.nodes[int(path.stem[5:])].ingest(lm.load_records_tsv(path))
        handed = {"sim": {}, "tcp": {}}  # the values each engine hands account, per slave

        def recording(engine):
            def record(ledgers, combine, event):
                agent_id = event.id if isinstance(event, lm.Agent) else event.from_agent if isinstance(event, lm.ResultMessage) else event.agent_id
                handed[engine].setdefault(agent_id, []).append(event)
                account(ledgers, combine, event)

            return record

        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as accepted:
            patch.setattr(orchestration, "account", recording("sim"))
            sim = lm.run_job(spec, cluster, lm.SimTransport(topology), results_only=results_only)
            patch.setattr(tcp_cluster, "account", recording("tcp"))
            record_accepted_data_frames(patch, accepted)
            tcp = lm.run_tcp_job(spec, topology, data_dir, results_only=results_only, timeout_s=30.0)
            tcp_frames = [int(line) for path in Path(accepted).iterdir() for line in path.read_text().split()]
        assert handed["tcp"] == handed["sim"]
        # Every counted byte crossed a link: an envelope or a result message its receiver accepted.
        assert sim.bytes_transferred_total == sum(sim_sends)
        assert tcp.bytes_transferred_total == sum(tcp_frames)
        assert tcp.final == sim.final
        assert tcp.migrations_total == sim.migrations_total
        assert tcp.bytes_transferred_total == sim.bytes_transferred_total
        assert tcp.raw_data_bytes == sim.raw_data_bytes
        by_agent = lambda result: sorted(result.slave_reports, key=lambda r: r.agent_id)  # noqa: E731
        assert by_agent(tcp) == by_agent(sim)
        return sim

    @pytest.mark.parametrize("selector", [b"", b"k4"])
    @pytest.mark.parametrize("slave_count", [1, 3, 9])
    @pytest.mark.parametrize("results_only", [False, True])
    def test_counts_and_reports_are_equal(self, node_set, delivered_sim_sends, selector, slave_count, results_only):
        topology, data_dir = node_set
        spec = lm.builtin_job("wordcount", job_id=1, slave_count=slave_count, selector=selector)
        self.assert_engines_agree(spec, topology, data_dir, delivered_sim_sends, results_only)

    def test_raw_data_is_the_targets_heap_bytes(self, tmp_path, delivered_sim_sends):
        # Node 3 holds data but is no target: neither engine reads it.
        data_dir = tmp_path / "data"
        shutil.copytree(CONFIGS / "sample_data", data_dir)
        topology = lm.Topology.from_file(CONFIGS / "iot3.json")
        spec = lm.builtin_job("wordcount", job_id=1, target_nodes=[1, 2])
        sim = self.assert_engines_agree(spec, topology, data_dir, delivered_sim_sends)
        targets = [r for n in (1, 2) for r in lm.load_records_tsv(data_dir / f"node_{n}.tsv")]
        assert sim.raw_data_bytes == sum(len(k) + len(v) for k, v in targets)
        assert sim.final == lm.sequential_oracle(spec.task, spec.combine, targets)


class TestNodeStartup:
    def run_python(self, *args, timeout=60):
        src = os.path.dirname(os.path.dirname(lm.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error::RuntimeWarning")
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)

    def test_module_runs_once_without_a_warning(self):
        proc = self.run_python("-m", "locomap.tcp_node", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "--node-id" in proc.stdout
        assert sorted(set(re.findall(r"--[a-z-]+", proc.stdout))) == ["--data-file", "--help", "--master", "--node-id"]
        # Run as __main__, the module never imports itself a second time.
        proc = self.run_python(
            "-c",
            "import runpy, sys\n"
            "sys.argv[1:] = ['--help']\n"
            "try:\n"
            "    runpy.run_module('locomap.tcp_node', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "print('locomap.tcp_node' in sys.modules)",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_node_import_leaves_out_the_master_and_the_cost_code(self):
        proc = self.run_python(
            "-c",
            "import sys, locomap.tcp_node\n"
            "print(sorted(m for m in ('locomap.cost', 'locomap.tcp_cluster', 'locomap.cli') if m in sys.modules))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_command_line_serves_one_node_until_shutdown(self, tmp_path):
        data_file = tmp_path / "node_1.tsv"
        data_file.write_bytes(b"k1\ta b\nk22\tc\n")
        events: queue.Queue = queue.Queue()
        master = FrameServer("127.0.0.1", 0, events.put)
        master.start()
        src = os.path.dirname(os.path.dirname(lm.__file__))
        cmd = [sys.executable, "-m", "locomap.tcp_node", "--node-id", "1", "--master", f"{master.host}:{master.port}", "--data-file", str(data_file)]
        node = subprocess.Popen(cmd, env=dict(os.environ, PYTHONPATH=src), stderr=subprocess.DEVNULL)
        try:
            ready = decode_control(events.get(timeout=30))
            assert (ready["type"], ready["node"]) == ("node_ready", 1)
            assert ready["heap_bytes"] == len(b"k1a b") + len(b"k22c")
            with socket.create_connection((ready["host"], ready["port"]), timeout=10) as sock:
                write_frame(sock, encode_control({"type": "shutdown"}))
                assert sock.recv(1) == b"\x06"
            assert node.wait(timeout=10) == 0
        finally:
            if node.poll() is None:
                node.kill()
                node.wait()
            master.stop()

    def test_command_line_exits_1_when_the_master_is_unreachable(self):
        # Nothing listens on port 1: the node_ready announcement is refused.
        proc = self.run_python("-m", "locomap.tcp_node", "--node-id", "1", "--master", "127.0.0.1:1", timeout=5)
        assert proc.returncode == 1
        assert "could not tell the master 'node_ready'" in proc.stderr

    def test_a_second_node_id_is_rejected(self):
        proc = self.run_python("-m", "locomap.tcp_node", "--node-id", "1", "--node-id", "2", "--master", "127.0.0.1:1")
        assert proc.returncode == 2
        assert "--node-id once" in proc.stderr
