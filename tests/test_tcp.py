import importlib
import logging
import os
import queue
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

import locomap as lm
from locomap import AgentRole, orchestration, tcp_cluster
from locomap.orchestration import SlaveLedger, account
from locomap.tcp_cluster import NodeExited, _await_each, _collect, _listen
from locomap.control import (
    CONTROL_MAGIC,
    Arrived,
    HasData,
    NodeReady,
    QueryData,
    RegisterJob,
    Shutdown,
    SlaveFailed,
    decode_control,
    encode_control,
    pack_control,
    unpack_control,
)
from locomap.tcp_node import FrameServer, NodeProcess, decode_frame
from locomap.transport import write_frame

from helpers import wordcount_reference


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
# holds nodes 2 and 11, so its int keys must sort as numbers.
CONTROL_FRAMES = {
    "node_ready": (
        NodeReady(node=1, host="127.0.0.1", port=9001, heap_bytes=35, dropped=2),
        b'LCTL{"dropped": 2, "heap_bytes": 35, "host": "127.0.0.1", "node": 1, "port": 9001, "type": "node_ready"}',
    ),
    "query_data": (
        QueryData(job_id=4, selector_hex="74656d702f"),
        b'LCTL{"job_id": 4, "selector_hex": "74656d702f", "type": "query_data"}',
    ),
    "has_data": (
        HasData(node=2, job_id=4, has_data=True),
        b'LCTL{"has_data": true, "job_id": 4, "node": 2, "type": "has_data"}',
    ),
    "register_job": (
        RegisterJob(
            job_id=9,
            map_fn_id="wordcount-map",
            reduce_fn_id="identity",
            selector_hex="74656d702f",
            combine="sum-by-key",
            results_only=True,
            master=0,
            addresses={0: ("127.0.0.1", 9000), 2: ("127.0.0.1", 9002), 11: ("127.0.0.1", 9011)},
            routes={12: (2, 11), 13: ()},
        ),
        b'LCTL{"addresses": {"0": ["127.0.0.1", 9000], "2": ["127.0.0.1", 9002], "11": ["127.0.0.1", 9011]}, '
        b'"combine": "sum-by-key", "job_id": 9, "map_fn_id": "wordcount-map", "master": 0, "reduce_fn_id": "identity", '
        b'"results_only": true, "routes": {"12": [2, 11], "13": []}, "selector_hex": "74656d702f", "type": "register_job"}',
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
    "missing-field": encode_control({"type": "arrived", "agent_id": 10, "job_id": 4, "hop": 0, "bytes": 40}),
    "extra-field": encode_control({"type": "shutdown", "now": True}),
    "bool-for-int": encode_control({"type": "has_data", "node": True, "job_id": 4, "has_data": True}),
    "list-for-str": encode_control({"type": "slave_failed", "agent_id": 10, "job_id": 4, "reason": ["gave up"]}),
    "route-not-a-list": CONTROL_FRAMES["register_job"][1].replace(b'"13": []', b'"13": "2"'),
    "address-key-not-a-node": CONTROL_FRAMES["register_job"][1].replace(b'"11": [', b'"x": ['),
    "address-missing-its-port": CONTROL_FRAMES["register_job"][1].replace(b', 9011]', b"]"),
    "query-selector-not-hex": CONTROL_FRAMES["query_data"][1].replace(b'"74656d702f"', b'"zz"'),
    "register-selector-not-hex": CONTROL_FRAMES["register_job"][1].replace(b'"74656d702f"', b'"7"'),
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

    def test_registration_rebuilds_the_job_spec(self):
        spec = lm.builtin_job("wordcount", job_id=9, selector=b"temp/")
        assert unpack_control(pack_control(RegisterJob.of(spec, True, 0, {0: ("127.0.0.1", 9000)}, {12: ()}))).spec == spec

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
        not_taken = {f"{kind} frame": CONTROL_FRAMES[kind][1] for kind in ("node_ready", "has_data", "arrived", "slave_failed")}
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


def start_node(node, master_server):
    proc = NodeProcess(node, "127.0.0.1", 0, (master_server.host, master_server.port), registry=lm.build_default_registry())
    proc.server.start()
    return proc


def drain(events, n, timeout=10.0):
    return [events.get(timeout=timeout) for _ in range(n)]


class TestNodeProcess:
    def test_hosts_then_forwards_the_agent_home(self, master_inbox):
        server, events = master_inbox
        node = lm.SensorNode(id=1)
        node.ingest([(b"r", b"a b a")])
        proc = start_node(node, server)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            spec = lm.builtin_job("wordcount", job_id=4)
            reg = RegisterJob.of(
                spec=spec,
                results_only=False,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                routes={10: (1,)},
            )
            transport.send(0, 1, pack_control(reg))
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
        proc = start_node(node, server)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            spec = lm.builtin_job("wordcount", job_id=4)
            reg = RegisterJob.of(
                spec=spec,
                results_only=True,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                routes={10: (1,)},
            )
            transport.send(0, 1, pack_control(reg))
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
    def test_answers_the_has_data_query(self, master_inbox, selector, expect):
        server, events = master_inbox
        node = lm.SensorNode(id=1)
        node.ingest([(b"temp/1", b"20")])
        proc = start_node(node, server)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            transport.send(0, 1, encode_control({"type": "query_data", "job_id": 4, "selector_hex": selector.hex()}))
            (frame,) = drain(events, 1)
            assert decode_control(frame) == {"type": "has_data", "node": 1, "job_id": 4, "has_data": expect}
        finally:
            proc.shutdown.set()
            proc.server.stop()

    def test_unreachable_next_hop_reports_slave_failed(self, master_inbox):
        server, events = master_inbox
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        node = lm.SensorNode(id=1)
        proc = start_node(node, server)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            spec = lm.builtin_job("wordcount", job_id=4)
            reg = RegisterJob.of(
                spec=spec,
                results_only=False,
                master=0,
                addresses={
                    0: (server.host, server.port),
                    1: (proc.server.host, proc.server.port),
                    2: ("127.0.0.1", dead_port),
                },
                routes={10: (1, 2)},
            )
            transport.send(0, 1, pack_control(reg))
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
        proc = start_node(node, server)
        # Control frames and the empty dispatched agent fit; the agent
        # carrying a 200-word partial home does not.
        monkeypatch.setattr(lm.transport, "MAX_FRAME", 1000)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            reg = RegisterJob.of(
                spec=lm.builtin_job("wordcount", job_id=4),
                results_only=False,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                routes={10: (1,)},
            )
            transport.send(0, 1, pack_control(reg))
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
        proc1 = start_node(node1, server)
        proc2 = start_node(node2, server)
        hosted = []
        host = node2.host
        monkeypatch.setattr(node2, "host", lambda agent, spec, registry: hosted.append(agent.id) or host(agent, spec, registry))

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
        try:
            spec = lm.builtin_job("wordcount", job_id=4)
            reg = RegisterJob.of(
                spec=spec,
                results_only=False,
                master=0,
                addresses={
                    0: (server.host, server.port),
                    1: (proc1.server.host, proc1.server.port),
                    2: (lossy.host, lossy.port),
                },
                routes={10: (1, 2)},
            )
            transport = lm.TcpTransport({1: (proc1.server.host, proc1.server.port), 2: (proc2.server.host, proc2.server.port)})
            for node_id in (1, 2):
                transport.send(0, node_id, pack_control(reg))
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
            assert proc2.callbacks.arrive_count == 1
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
        monkeypatch.setattr(node, "host", lambda agent, registry: hosted.append(agent.id))
        proc = start_node(node, server)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            reg = RegisterJob.of(
                spec=lm.builtin_job("wordcount", job_id=4),
                results_only=False,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                routes={10: (1,)},
            )
            transport.send(0, 1, pack_control(reg))
            envelope = lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4))
            for _ in range(2):
                with pytest.raises(lm.TransportFailure, match="closed without acknowledging"):
                    transport.send(0, 1, envelope)
                attempts = [decode_control(f) for f in drain(events, 4)]  # 1 attempt, 3 retries
                assert [(d["type"], d["hop"]) for d in attempts] == [("arrived", 0)] * 4
            with pytest.raises(queue.Empty):
                events.get(timeout=1.0)
            assert hosted == []
            assert proc.callbacks.arrive_count == 0
        finally:
            proc.shutdown.set()
            proc.server.stop()
            server.stop()

    def test_concurrent_repeats_are_accepted_once(self, master_inbox):
        server, events = master_inbox
        node = lm.SensorNode(id=1)
        node.ingest([(b"r", b"a")])
        proc = start_node(node, server)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            reg = RegisterJob.of(
                spec=lm.builtin_job("wordcount", job_id=4),
                results_only=False,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                routes={10: (1,)},
            )
            transport.send(0, 1, pack_control(reg))
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
            assert proc.callbacks.arrive_count == 1
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
            NodeReady(node=1, host="127.0.0.1", port=1234, heap_bytes=5, dropped=0),
            HasData(node=1, job_id=4, has_data=True),
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
        expect = NodeReady(node=1, host="127.0.0.1", port=1234, heap_bytes=5, dropped=0)
        for event in (
            HasData(node=1, job_id=4, has_data=True),
            NodeReady(node=7, host="127.0.0.1", port=1235, heap_bytes=5, dropped=0),
            lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4),
            expect,
        ):
            events.put(event)
        assert _await_each(events, NodeReady, (1,), time.monotonic() + 5.0, "the cluster was ready") == {1: expect}
        assert events.empty()

    def test_await_each_names_the_silent_nodes_at_its_deadline(self):
        events: queue.Queue = queue.Queue()
        events.put(NodeReady(node=2, host="127.0.0.1", port=1234, heap_bytes=5, dropped=0))
        with pytest.raises(lm.ConfigError, match=r"^nodes \[1, 3\] sent no node_ready before the deadline$"):
            _await_each(events, NodeReady, (1, 2, 3), time.monotonic() + 0.2, "the cluster was ready")

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

    def test_a_job_module_imported_by_the_master_reaches_the_nodes(self, tmp_path, monkeypatch):
        # Found through sys.path only: no PYTHONPATH names its directory.
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
        result = lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0, job_module="locomap_masteronly")
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

    def test_a_master_port_in_use_is_a_config_error_and_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tcp_cluster.os, "fork", lambda: pytest.fail("forked a node"))
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"]})
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            with pytest.raises(lm.ConfigError, match=f"the master cannot listen on 127.0.0.1:{port}"):
                lm.run_tcp_job(spec, topology, data_dir, base_port=port, timeout_s=30.0)

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

    def test_job_module_that_cannot_be_imported_fails_fast(self, tmp_path):
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"]})
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.ConfigError, match=r"node [12] exited with code 1 before the cluster was ready") as exc:
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0, job_module="locomap_no_such_job", log_dir=tmp_path / "logs")
        assert time.monotonic() - started < 4
        node = str(exc.value).split()[1]
        assert "No module named 'locomap_no_such_job'" in (tmp_path / "logs" / f"node_{node}.log").read_text()
        assert not (tmp_path / "logs" / "launcher.log").exists()

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

    def test_node_killed_mid_tour_fails_only_its_slave(self, tmp_path, monkeypatch):
        # A map function that kills its node process on a "die" record. The
        # nodes import the module through job_module; this process imports it
        # too, so the job's map id is registered on the master.
        (tmp_path / "locomap_killjob.py").write_text(
            "import os\n"
            "import locomap as lm\n"
            "\n"
            "def die_or_count(key, value):\n"
            "    if value == b'die':\n"
            "        os._exit(17)\n"
            "    for word in value.split():\n"
            "        yield word.decode(), 1\n"
            "\n"
            "lm.DEFAULT_REGISTRY.register_map('die-wordcount', die_or_count)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        importlib.import_module("locomap_killjob")

        node_values = {1: [b"a b", b"c"], 2: [b"a", b"die"], 3: [b"b b c"]}
        data_dir = write_node_files(tmp_path, node_values)
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.JobSpec(job_id=1, task=lm.TaskDescriptor("die-wordcount", "identity"), combine="sum-by-key")
        started = time.monotonic()
        result = lm.run_tcp_job(spec, topology, data_dir, timeout_s=30, job_module="locomap_killjob")
        # The node's exit report fails the slave at once, not at the deadline.
        assert time.monotonic() - started < 4

        assert (result.partials_received, result.slaves_failed, result.slave_count) == (2, 1, 3)
        survivors = [r for n in (1, 3) for r in lm.load_records_tsv(data_dir / f"node_{n}.tsv")]
        assert result.final == lm.sequential_oracle(spec.task, spec.combine, survivors)
        (killed,) = [r for r in result.slave_reports if r.nodes == (2,)]
        assert not killed.delivered
        assert killed.migrations == 1
        assert killed.fail_reason == "node 2 exited with code 17 while holding the slave"

    @pytest.mark.parametrize(
        "when, error",
        [
            ("before_ack", r"could not query data at node 2"),
            ("after_ack", r"node 2 exited with code 23 before every node answered the has-data query"),
        ],
    )
    def test_node_killed_by_the_has_data_query_fails_the_job_fast(self, tmp_path, monkeypatch, when, error):
        # A job module that makes node 2 exit when the has-data query
        # arrives: before it acks the query, or right after.
        (tmp_path / "locomap_querykill.py").write_text(
            "import os\n"
            "\n"
            "from locomap.tcp_node import NodeProcess\n"
            "on_control = NodeProcess._on_control\n"
            "\n"
            "def die_on_query(self, doc):\n"
            "    if self.node.id == 2 and doc.kind == 'query_data':\n"
            "        if os.environ['LOCOMAP_DIE_WHEN'] == 'before_ack':\n"
            "            os._exit(23)\n"
            "        return lambda: os._exit(23)\n"
            "    return on_control(self, doc)\n"
            "\n"
            "NodeProcess._on_control = die_on_query\n"
        )
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        monkeypatch.setenv("LOCOMAP_DIE_WHEN", when)
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"], 3: [b"c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.ConfigError, match=error):
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30, job_module="locomap_querykill")
        assert time.monotonic() - started < 4

    def test_node_that_cannot_answer_the_has_data_query_fails_the_job_fast(self, tmp_path, monkeypatch):
        # A job module whose node 2 finds the master refusing every attempt
        # to deliver its has_data answer; the node gives up and exits 1.
        (tmp_path / "locomap_hasdatalost.py").write_text(
            "from locomap.errors import ConnectRefused\n"
            "from locomap.control import HasData\n"
            "from locomap.tcp_node import NodeProcess, decode_frame\n"
            "send = NodeProcess._send\n"
            "\n"
            "class Refusing:\n"
            "    def send(self, src, dst, payload, at=0.0):\n"
            "        raise ConnectRefused('master refused the has_data answer')\n"
            "\n"
            "def lose_has_data(self, transport, dst, payload):\n"
            "    if self.node.id == 2 and isinstance(decode_frame(payload), HasData):\n"
            "        transport = Refusing()\n"
            "    return send(self, transport, dst, payload)\n"
            "\n"
            "NodeProcess._send = lose_has_data\n"
        )
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"], 3: [b"c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.ConfigError, match=r"node 2 exited with code 1 before every node answered the has-data query"):
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30, job_module="locomap_hasdatalost")
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
        # A job module that makes node 2 exit at one step of its part of
        # the protocol. The killed slave counts only the hops that arrived.
        (tmp_path / "locomap_nodedeath.py").write_text(
            "import os\n"
            "\n"
            "from locomap.control import CONTROL_MAGIC\n"
            "from locomap.tcp_node import NodeProcess\n"
            "\n"
            "WHERE = os.environ['LOCOMAP_DIE_WHERE']\n"
            "accept, host, send = NodeProcess._accept_envelope, NodeProcess._host_and_forward, NodeProcess._send\n"
            "\n"
            "def die_at(self, where):\n"
            "    if self.node.id == 2 and where == WHERE:\n"
            "        os._exit(29)\n"
            "\n"
            "def wrapped_accept(self, agent, nbytes):\n"
            "    die_at(self, 'accept')\n"
            "    then = accept(self, agent, nbytes)\n"
            "    die_at(self, 'arrival_acked')\n"
            "    return then\n"
            "\n"
            "def wrapped_host(self, agent):\n"
            "    die_at(self, 'hosting')\n"
            "    return host(self, agent)\n"
            "\n"
            "def wrapped_send(self, transport, dst, payload):\n"
            "    if payload[:4] != CONTROL_MAGIC:\n"
            "        die_at(self, 'send')\n"
            "    return send(self, transport, dst, payload)\n"
            "\n"
            "NodeProcess._accept_envelope = wrapped_accept\n"
            "NodeProcess._host_and_forward = wrapped_host\n"
            "NodeProcess._send = wrapped_send\n"
        )
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        monkeypatch.setenv("LOCOMAP_DIE_WHERE", where)
        node_values = {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]}
        data_dir = write_node_files(tmp_path, node_values)
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        result = lm.run_tcp_job(spec, topology, data_dir, results_only=results_only, timeout_s=30, job_module="locomap_nodedeath")
        assert time.monotonic() - started < 4

        assert (result.partials_received, result.slaves_failed, result.slave_count) == (2, 1, 3)
        survivors = [r for n in (1, 3) for r in lm.load_records_tsv(data_dir / f"node_{n}.tsv")]
        assert result.final == lm.sequential_oracle(spec.task, spec.combine, survivors)
        (killed,) = [r for r in result.slave_reports if r.nodes == (2,)]
        assert not killed.delivered
        assert "node 2" in killed.fail_reason
        assert killed.migrations == migrations

    def test_a_forward_that_does_not_decode_fails_its_slave_at_once(self, tmp_path, monkeypatch):
        # A job module whose nodes flip one bit of the CRC-32 of every
        # envelope they forward. The master leaves each unacked, so each
        # node gives its forward up and reports the slave failed.
        (tmp_path / "locomap_corruptforward.py").write_text(
            "from locomap import tcp_node\n"
            "\n"
            "pack = tcp_node.pack\n"
            "\n"
            "def corrupt_pack(agent, callbacks=None):\n"
            "    frame = bytearray(pack(agent, callbacks))\n"
            "    frame[-1] ^= 0x01  # the envelope's CRC-32 ends the frame\n"
            "    return bytes(frame)\n"
            "\n"
            "tcp_node.pack = corrupt_pack\n"
        )
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        data_dir = write_node_files(tmp_path, {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.AllSlavesFailed) as failed:
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30, job_module="locomap_corruptforward")
        assert time.monotonic() - started < 4

        result = failed.value.result
        assert (result.partials_received, result.slaves_failed, result.slave_count) == (0, 3, 3)
        assert result.partials_received + result.slaves_failed == result.slave_count
        for report in result.slave_reports:
            assert not report.delivered
            assert report.fail_reason == "could not forward to node 0"
            assert report.migrations == 1  # the dispatch; the corrupt hop home never arrived

    def test_a_result_whose_partial_does_not_decode_fails_its_slave_at_once(self, tmp_path, monkeypatch):
        # A job module whose node 2 sends home a result message with a valid
        # CRC-32 over a partial that is not JSON. The master acks it; the
        # slave's ledger fails the slave when it is delivered.
        (tmp_path / "locomap_badpartial.py").write_text(
            "from locomap import tcp_node\n"
            "from locomap.orchestration import ResultMessage\n"
            "\n"
            "host_and_route = tcp_node.host_and_route\n"
            "\n"
            "def bad_partial(node, agent, spec, registry, route, master, results_only):\n"
            "    agent, nxt, message = host_and_route(node, agent, spec, registry, route, master, results_only)\n"
            "    if node.id == 2 and message is not None:\n"
            "        message = ResultMessage(message.from_agent, b'not json')\n"
            "    return agent, nxt, message\n"
            "\n"
            "tcp_node.host_and_route = bad_partial\n"
        )
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        data_dir = write_node_files(tmp_path, {1: [b"a b", b"c"], 2: [b"a"], 3: [b"b b c"]})
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        result = lm.run_tcp_job(spec, topology, data_dir, results_only=True, timeout_s=30, job_module="locomap_badpartial")
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

    def recording_init(server, host, port, handler):
        def record(frame):
            then = handler(frame)
            if frame[:4] != CONTROL_MAGIC:
                with open(os.path.join(into_dir, str(os.getpid())), "a") as log:
                    log.write(f"{len(frame)}\n")
            return then

        init(server, host, port, record)

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


def process_running(pid: int) -> bool:
    """True unless the process is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestNodeStartup:
    def run_python(self, *args, timeout=60):
        src = os.path.dirname(os.path.dirname(lm.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error::RuntimeWarning")
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)

    def test_module_runs_once_without_a_warning(self):
        proc = self.run_python("-m", "locomap.tcp_node", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "--node-id" in proc.stdout

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
