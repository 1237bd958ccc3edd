import importlib
import logging
import os
import queue
import socket
import subprocess
import sys
import threading
import time

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
            partitions={11: (2,), 12: ()},
        )
        back = JobRegistration.from_control(reg.register_control())
        assert back.spec.job_id == 9
        assert back.spec.task == spec.task
        assert back.spec.combine == spec.combine
        assert back.results_only is True
        assert back.master == 0
        assert back.addresses == reg.addresses
        assert back.partitions == {11: (2,), 12: ()}


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
                partitions={10: (1,)},
            )
            transport.send(0, 1, encode_control(reg.register_control()))
            slave = lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)
            transport.send(0, 1, lm.pack(slave))

            # The stat for a hop is acked by the master before the hop is made.
            stat_frame, envelope = drain(events, 2)
            assert classify_frame(envelope) == "envelope"
            agent = lm.unpack(envelope)
            assert agent.id == 10
            assert agent.itinerary == (1,)
            assert lm.decode_partial(agent.payload) == {"a": 2, "b": 1}
            stat = decode_control(stat_frame)
            assert stat["type"] == "forwarded"
            assert stat["hop"] == 1
            assert stat["bytes"] == len(envelope)
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
                partitions={10: (1,)},
            )
            transport.send(0, 1, encode_control(reg.register_control()))
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))
            (frame,) = drain(events, 1)
            assert classify_frame(frame) == "result"
            message = lm.decode_result(frame)
            assert message.from_agent == 10
            assert lm.decode_partial(message.partial) == {"x": 1, "y": 1}
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
                partitions={10: (1, 2)},
            )
            transport.send(0, 1, encode_control(reg.register_control()))
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))
            stat, failure = (decode_control(f) for f in drain(events, 2, timeout=15.0))
            assert (stat["type"], stat["agent_id"], stat["hop"]) == ("forwarded", 10, 1)
            assert (failure["type"], failure["agent_id"], failure["hop"]) == ("slave_failed", 10, 1)
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
                partitions={10: (1, 2)},
            )
            transport = lm.TcpTransport({1: (proc1.server.host, proc1.server.port), 2: (proc2.server.host, proc2.server.port)})
            for node_id in (1, 2):
                transport.send(0, node_id, encode_control(reg.register_control()))
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))

            first, second, envelope = drain(events, 3)
            assert [decode_control(f)["hop"] for f in (first, second)] == [1, 2]
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

    def test_refused_stat_stops_the_hop(self):
        # A master that refuses every forwarded stat: the node retries the
        # stat under the retry policy, then reports the slave failed at that
        # hop and gives the hop up without sending the envelope.
        events: queue.Queue = queue.Queue()

        def refuse_stats(frame):
            events.put(frame)
            if classify_frame(frame) == "control" and decode_control(frame)["type"] == "forwarded":
                raise ConnectionRefusedError("stat refused")

        server = FrameServer("127.0.0.1", 0, refuse_stats)
        server.start()
        node = lm.SensorNode(id=1)
        node.ingest([(b"r", b"a")])
        proc = start_node(node, server)
        try:
            transport = lm.TcpTransport({1: (proc.server.host, proc.server.port)})
            reg = JobRegistration(
                spec=lm.builtin_job("wordcount", job_id=4),
                results_only=False,
                master=0,
                addresses={0: (server.host, server.port), 1: (proc.server.host, proc.server.port)},
                partitions={10: (1,)},
            )
            transport.send(0, 1, encode_control(reg.register_control()))
            transport.send(0, 1, lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4)))

            attempts = [decode_control(f) for f in drain(events, 4)]  # 1 attempt, 3 retries
            assert [(d["type"], d["hop"]) for d in attempts] == [("forwarded", 1)] * 4
            failed = decode_control(events.get(timeout=5.0))
            assert (failed["type"], failed["hop"]) == ("slave_failed", 1)
            assert "forwarded stat" in failed["reason"]
            with pytest.raises(queue.Empty):
                events.get(timeout=1.0)
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
                partitions={10: (1,)},
            )
            transport.send(0, 1, encode_control(reg.register_control()))
            envelope = lm.pack(lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4))
            senders = [threading.Thread(target=transport.send, args=(0, 1, envelope)) for _ in range(8)]
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(timeout=10.0)
                assert not sender.is_alive()

            stat, home = drain(events, 2)
            assert decode_control(stat)["hop"] == 1
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
            (frame,) = drain(events, 1)
            doc = decode_control(frame)
            assert doc["type"] == "slave_failed"
        finally:
            proc.shutdown.set()
            proc.server.stop()


class TestMasterAccounting:
    def test_collect_keys_stats_by_hop_and_ignores_resolved_slaves(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        failing = _SlaveState(agent_id=10, partition=(1, 2, 3), hops={0: 40})
        healthy = _SlaveState(agent_id=11, partition=(3,), hops={0: 40})
        states = {10: failing, 11: healthy}

        def control(doc):
            return encode_control({"agent_id": 10, "job_id": 4, **doc})

        late = lm.Agent(id=10, role=AgentRole.SLAVE, job_id=4, itinerary=(1, 2), payload=lm.encode_partial({"a": 1}))
        result = lm.ResultMessage(from_agent=11, partial=lm.encode_partial({"b": 2})).encode()
        events: queue.Queue = queue.Queue()
        for frame in (
            control({"type": "forwarded", "hop": 1, "bytes": 50, "dst": 2}),
            control({"type": "forwarded", "hop": 1, "bytes": 50, "dst": 2}),  # repeated stat
            control({"type": "forwarded", "hop": 2, "bytes": 60, "dst": 3}),
            control({"type": "slave_failed", "hop": 2, "reason": "could not forward to node 3"}),
            lm.pack(late),  # arrives after the slave failed
            result,
        ):
            events.put(frame)

        _collect(events, states, lm.LifecycleCallbacks(), combine, time.monotonic() + 5.0)

        assert events.empty()
        failed = failing.report()
        assert failed.migrations == 2  # the dispatch and hop 1, once; hop 2 failed
        assert failed.bytes_sent == 40 + 50
        assert not failed.delivered
        assert failed.fail_reason == "could not forward to node 3"
        assert failing.message is None
        delivered = healthy.report()
        assert delivered.delivered and delivered.fail_reason is None
        assert delivered.bytes_sent == 40 + len(result)
        reports = [failed, delivered]
        assert sum(r.delivered for r in reports) + sum(r.fail_reason is not None for r in reports) == len(states)

    def test_node_exit_fails_only_the_slaves_it_holds(self):
        registry = lm.build_default_registry()
        combine = registry.resolve_combine(lm.builtin_job("wordcount", job_id=4).combine)
        moved_on = _SlaveState(agent_id=10, partition=(1, 2), hops={0: 40}, holder=1)
        held = _SlaveState(agent_id=11, partition=(1,), hops={0: 40}, holder=1)
        states = {10: moved_on, 11: held}
        events: queue.Queue = queue.Queue()
        for frame in (
            encode_control({"type": "forwarded", "agent_id": 10, "job_id": 4, "hop": 1, "bytes": 50, "dst": 2}),
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
