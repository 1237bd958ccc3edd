import importlib
import logging
import os
import queue
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import locomap as lm
from locomap import AgentRole
from locomap.tcp_cluster import _collect, _SlaveState
from locomap.tcp_node import (
    FrameServer,
    JobRegistration,
    NodeProcess,
    classify_frame,
    decode_control,
    encode_control,
)

from helpers import wordcount_reference


class TestFrameClassification:
    def test_envelope_control_result(self):
        assert classify_frame(lm.pack(lm.Agent(id=1, role=AgentRole.SLAVE, job_id=1))) == "envelope"
        assert classify_frame(encode_control({"type": "shutdown"})) == "control"
        assert classify_frame(lm.ResultMessage(from_agent=5, partial=b"x").encode()) == "result"

    def test_control_codec_roundtrip(self):
        doc = {"type": "node_ready", "node": 3, "port": 1234}
        assert decode_control(encode_control(doc)) == doc


class TestJobRegistration:
    def test_control_roundtrip(self):
        spec = lm.builtin_job("wordcount", job_id=9, selector=b"temp:")
        reg = JobRegistration(
            spec=spec,
            results_only=True,
            master=0,
            addresses={0: ("127.0.0.1", 9000), 2: ("127.0.0.1", 9002)},
            routes={11: (2,), 12: ()},
        )
        back = JobRegistration.from_control(reg.register_control())
        assert back.spec.job_id == 9
        assert back.spec.task == spec.task
        assert back.spec.combine == spec.combine
        assert back.results_only is True
        assert back.master == 0
        assert back.addresses == reg.addresses
        assert back.routes == {11: (2,), 12: ()}


@pytest.fixture
def master_inbox():
    events: queue.Queue = queue.Queue()
    server = FrameServer("127.0.0.1", 0, events.put)
    server.start()
    yield server, events
    server.stop()


def start_node(node, master_server):
    proc = NodeProcess(node, "127.0.0.1", 0, (master_server.host, master_server.port), registry=lm.build_default_registry())
    proc.start()
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
            reg = JobRegistration(
                spec=spec,
                results_only=False,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                routes={10: (1,)},
            )
            transport.send(0, 1, encode_control(reg.register_control()))
            dispatched = lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4))
            transport.send(0, 1, dispatched)

            # The arrival is acked by the master before the envelope is.
            arrived_frame, envelope = drain(events, 2)
            assert decode_control(arrived_frame) == {
                "type": "arrived", "agent_id": 10, "job_id": 4, "hop": 0, "bytes": len(dispatched), "node": 1,
            }
            assert classify_frame(envelope) == "envelope"
            agent = lm.unpack(envelope)
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
            reg = JobRegistration(
                spec=spec,
                results_only=True,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                routes={10: (1,)},
            )
            transport.send(0, 1, encode_control(reg.register_control()))
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))
            arrived, frame = drain(events, 2)
            assert (decode_control(arrived)["type"], decode_control(arrived)["hop"]) == ("arrived", 0)
            assert classify_frame(frame) == "result"
            message = lm.decode_result(frame)
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
            reg = JobRegistration(
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
            transport.send(0, 1, encode_control(reg.register_control()))
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))
            arrived, failure = (decode_control(f) for f in drain(events, 2, timeout=15.0))
            assert (arrived["type"], arrived["agent_id"], arrived["hop"], arrived["node"]) == ("arrived", 10, 0, 1)
            assert (failure["type"], failure["agent_id"]) == ("slave_failed", 10)
            assert failure["reason"] == "could not forward to node 2"
            assert "hop" not in failure
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
        monkeypatch.setattr(node2, "host", lambda agent, registry: hosted.append(agent.id) or host(agent, registry))

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
            reg = JobRegistration(
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
                transport.send(0, node_id, encode_control(reg.register_control()))
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
            if classify_frame(frame) == "control" and decode_control(frame)["type"] == "arrived":
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
            reg = JobRegistration(
                spec=lm.builtin_job("wordcount", job_id=4),
                results_only=False,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                routes={10: (1,)},
            )
            transport.send(0, 1, encode_control(reg.register_control()))
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
            reg = JobRegistration(
                spec=lm.builtin_job("wordcount", job_id=4),
                results_only=False,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                routes={10: (1,)},
            )
            transport.send(0, 1, encode_control(reg.register_control()))
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


class TestMasterAccounting:
    def test_collect_keys_arrivals_by_hop_and_ignores_resolved_slaves(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        failing = _SlaveState(agent_id=10, partition=(1, 2, 3))
        healthy = _SlaveState(agent_id=11, partition=(3,))
        states = {10: failing, 11: healthy}

        def control(doc, agent_id=10):
            return encode_control({"agent_id": agent_id, "job_id": 4, **doc})

        late = lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4, itinerary=(1, 2), payload=lm.encode_partial({"a": 1}))
        result = lm.ResultMessage(from_agent=11, partial=lm.encode_partial({"b": 2})).encode()
        events: queue.Queue = queue.Queue()
        for frame in (
            control({"type": "arrived", "hop": 0, "bytes": 40, "node": 1}),
            control({"type": "arrived", "hop": 0, "bytes": 40, "node": 3}, agent_id=11),
            control({"type": "arrived", "hop": 1, "bytes": 50, "node": 2}),
            control({"type": "arrived", "hop": 1, "bytes": 50, "node": 2}),  # repeated arrival
            control({"type": "slave_failed", "reason": "could not forward to node 3"}),
            lm.pack(late),  # arrives after the slave failed
            result,
        ):
            events.put(frame)

        _collect(events, states, lm.LifecycleCallbacks(), combine, time.monotonic() + 5.0)

        assert events.empty()
        failed = failing.report()
        assert failed.migrations == 2  # the dispatch and hop 1, once; hop 2 never arrived
        assert failed.bytes_sent == 40 + 50
        assert not failed.delivered
        assert failed.fail_reason == "could not forward to node 3"
        assert failing.message is None
        delivered = healthy.report()
        assert delivered.delivered and delivered.fail_reason is None
        assert delivered.bytes_sent == 40 + len(result)
        reports = [failed, delivered]
        assert sum(r.delivered for r in reports) + sum(r.fail_reason is not None for r in reports) == len(states)

    def test_an_envelope_coming_home_counts_its_hop(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        state = _SlaveState(agent_id=10, partition=(1,))
        home = lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4, itinerary=(1,), payload=lm.encode_partial({"a": 1})))
        events: queue.Queue = queue.Queue()
        events.put(encode_control({"type": "arrived", "agent_id": 10, "job_id": 4, "hop": 0, "bytes": 40, "node": 1}))
        events.put(home)

        _collect(events, {10: state}, lm.LifecycleCallbacks(), combine, time.monotonic() + 5.0)

        report = state.report()
        assert report.delivered
        assert report.migrations == 2
        assert report.bytes_sent == 40 + len(home) + state.message_bytes

    def test_node_exit_fails_only_the_slaves_it_holds(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        moved_on = _SlaveState(agent_id=10, partition=(1, 2))
        held = _SlaveState(agent_id=11, partition=(1,))
        states = {10: moved_on, 11: held}
        events: queue.Queue = queue.Queue()
        for frame in (
            encode_control({"type": "arrived", "agent_id": 10, "job_id": 4, "hop": 0, "bytes": 40, "node": 1}),
            encode_control({"type": "arrived", "agent_id": 11, "job_id": 4, "hop": 0, "bytes": 40, "node": 1}),
            encode_control({"type": "arrived", "agent_id": 10, "job_id": 4, "hop": 1, "bytes": 50, "node": 2}),
            encode_control({"type": "node_exited", "node": 1, "code": -9}),
            lm.ResultMessage(from_agent=10, partial=lm.encode_partial({"a": 1})).encode(),
        ):
            events.put(frame)

        _collect(events, states, lm.LifecycleCallbacks(), combine, time.monotonic() + 5.0)

        assert held.fail_reason == "node 1 exited with code -9 while holding the slave"
        assert held.report().migrations == 1
        assert moved_on.fail_reason is None and moved_on.report().delivered

    def test_deadline_fails_the_unresolved_slaves(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        state = _SlaveState(agent_id=10, partition=(1,), hops={0: 40})
        _collect(queue.Queue(), {10: state}, lm.LifecycleCallbacks(), combine, time.monotonic())
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

    def test_launcher_that_cannot_start_fails_fast(self, tmp_path):
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"]})
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        started = time.monotonic()
        with pytest.raises(lm.ConfigError, match=r"the node launcher exited with code 1 before the cluster was ready"):
            lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0, job_module="locomap_no_such_job", log_dir=tmp_path / "logs")
        assert time.monotonic() - started < 4
        assert "No module named 'locomap_no_such_job'" in (tmp_path / "logs" / "launcher.log").read_text()

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
        # The launcher's exit report fails the slave at once, not at the deadline.
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
            "    if self.node.id == 2 and doc.get('type') == 'query_data':\n"
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
            "from locomap.tcp_node import NodeProcess, classify_frame\n"
            "\n"
            "WHERE = os.environ['LOCOMAP_DIE_WHERE']\n"
            "accept, host, send = NodeProcess._accept_envelope, NodeProcess._host_and_forward, NodeProcess._send\n"
            "\n"
            "def die_at(self, where):\n"
            "    if self.node.id == 2 and where == WHERE:\n"
            "        os._exit(29)\n"
            "\n"
            "def wrapped_accept(self, frame):\n"
            "    die_at(self, 'accept')\n"
            "    then = accept(self, frame)\n"
            "    die_at(self, 'arrival_acked')\n"
            "    return then\n"
            "\n"
            "def wrapped_host(self, agent):\n"
            "    die_at(self, 'hosting')\n"
            "    return host(self, agent)\n"
            "\n"
            "def wrapped_send(self, transport, dst, payload):\n"
            "    if classify_frame(payload) != 'control':\n"
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

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    @pytest.mark.parametrize("bad_data", [False, True])
    def test_no_node_outlives_its_job(self, tmp_path, monkeypatch, bad_data):
        # A job module that records the launcher's pid at import and each
        # node's pid right after its fork.
        pids = tmp_path / "pids"
        pids.mkdir()
        (tmp_path / "locomap_pidjob.py").write_text(
            "import os\n"
            "\n"
            "def record_pid():\n"
            "    with open(os.path.join(os.environ['LOCOMAP_PID_DIR'], str(os.getpid())), 'w'):\n"
            "        pass\n"
            "\n"
            "record_pid()\n"
            "os.register_at_fork(after_in_child=record_pid)\n"
        )
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        monkeypatch.setenv("LOCOMAP_PID_DIR", str(pids))
        data_dir = write_node_files(tmp_path, {1: [b"a"], 2: [b"b"], 3: [b"c"]})
        if bad_data:
            (data_dir / "node_2.tsv").write_bytes(b"\tno key\n")
        topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        spec = lm.builtin_job("wordcount", job_id=1)
        if bad_data:
            with pytest.raises(lm.ConfigError, match="node 2 exited"):
                lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0, job_module="locomap_pidjob")
        else:
            assert lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0, job_module="locomap_pidjob").final == {"a": 1, "b": 1, "c": 1}

        recorded = [int(p.name) for p in pids.iterdir()]
        assert len(recorded) == 4  # the launcher and three nodes
        assert [pid for pid in recorded if process_running(pid)] == []


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestRoutesMatchTheSimEngine:
    """TCP slaves skip the nodes that hold nothing for the selector, as
    sim slaves do, so every count and every slave report is equal."""

    @pytest.fixture(params=["iot3", "iot8"])
    def node_set(self, request, tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(CONFIGS / "sample_data", data_dir)
        if request.param == "iot3":
            (data_dir / "node_2.tsv").write_bytes(b"")  # node 2 empty
        # iot8: nodes 4-8 have no data file
        return lm.Topology.from_file(CONFIGS / f"{request.param}.json"), data_dir

    @pytest.mark.parametrize("selector", [b"", b"k4"])
    @pytest.mark.parametrize("slave_count", [1, 3])
    @pytest.mark.parametrize("results_only", [False, True])
    def test_counts_and_reports_are_equal(self, node_set, selector, slave_count, results_only):
        topology, data_dir = node_set
        spec = lm.builtin_job("wordcount", job_id=1, slave_count=slave_count, selector=selector)
        cluster = lm.Cluster.from_topology(topology)
        for path in data_dir.glob("node_*.tsv"):
            cluster.nodes[int(path.stem[5:])].ingest(lm.load_records_tsv(path))
        sim = lm.run_job(spec, cluster, lm.SimTransport(topology), results_only=results_only)
        tcp = lm.run_tcp_job(spec, topology, data_dir, results_only=results_only, timeout_s=30.0)
        assert tcp.final == sim.final
        assert tcp.migrations_total == sim.migrations_total
        assert tcp.bytes_transferred_total == sim.bytes_transferred_total
        by_agent = lambda result: sorted(result.slave_reports, key=lambda r: r.agent_id)  # noqa: E731
        assert by_agent(tcp) == by_agent(sim)


def process_running(pid: int) -> bool:
    """True unless the process is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestNodeStartup:
    def run_python(self, *args):
        src = os.path.dirname(os.path.dirname(lm.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error::RuntimeWarning")
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)

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

    def test_ports_and_data_files_must_match_the_node_ids(self):
        from locomap.tcp_node import main

        with pytest.raises(SystemExit) as exc:
            main(["--node-id", "1", "--node-id", "2", "--port", "0", "--master", "127.0.0.1:1"])
        assert exc.value.code == 2
