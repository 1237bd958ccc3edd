import copy
import json
import logging
import math
import queue
import random
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

import locomap as lm
from locomap.transport import read_frame, write_frame
from locomap.tcp_node import FrameServer


def iot_link(bandwidth=1_048_576, latency=0.010, failure=0.0):
    return lm.SimLink(src=0, dst=1, bandwidth_bytes_per_s=bandwidth, latency_s=latency, failure_prob=failure)


class TestSimSend:
    def test_elapsed_is_exactly_latency_plus_transfer(self):
        report = lm.sim_send(iot_link(), 1_048_576, random.Random(0))
        assert report.delivered
        assert report.elapsed_s == 0.010 + 1.0
        assert report.transfer_s == 1.0
        assert report.connect_s == 0.010

    def test_zero_bytes_costs_latency_only(self):
        report = lm.sim_send(iot_link(), 0, random.Random(0))
        assert report.elapsed_s == 0.010

    def test_forced_failure(self):
        report = lm.sim_send(iot_link(failure=1.0), 100, random.Random(0))
        assert not report.delivered
        assert report.elapsed_s == 0.010
        assert report.bytes == 100

    def test_seeded_failures_are_reproducible(self):
        link = iot_link(failure=0.5)
        pattern_a = [lm.sim_send(link, 1, random.Random(42)).delivered for _ in range(1)]
        runs = []
        for _ in range(2):
            rng = random.Random(42)
            runs.append([lm.sim_send(link, 1, rng).delivered for _ in range(100)])
        assert runs[0] == runs[1]
        assert pattern_a[0] == runs[0][0]


class TestLinkValidation:
    def test_bandwidth_must_be_positive(self):
        with pytest.raises(lm.TopologyError):
            lm.SimLink(src=0, dst=1, bandwidth_bytes_per_s=0)

    def test_failure_prob_range(self):
        with pytest.raises(lm.TopologyError):
            lm.SimLink(src=0, dst=1, bandwidth_bytes_per_s=1, failure_prob=1.5)

    def test_negative_latency(self):
        with pytest.raises(lm.TopologyError):
            lm.SimLink(src=0, dst=1, bandwidth_bytes_per_s=1, latency_s=-0.1)

    @pytest.mark.parametrize("name", ["bandwidth_bytes_per_s", "latency_s", "failure_prob"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_number_that_is_not_finite(self, name, value):
        with pytest.raises(lm.TopologyError):
            lm.SimLink(**{"src": 0, "dst": 1, "bandwidth_bytes_per_s": 1, name: value})


# A topology file with one value of the wrong type, or a key it may not
# have; each is a TopologyError naming its key.
BAD_TOPOLOGY_VALUES = {
    "rng-seed-not-an-int": ("rng_seed", "abc"),
    "rng-seed-a-float": ("rng_seed", 1.7),
    "preset-a-list": ("preset", ["iot"]),
    "default-link-not-an-object": ("default_link", 5),
    "default-link-latency-not-a-number": ("default_link", {"latency_s": "slow"}),
    "default-link-bandwidth-nan": ("default_link", {"bandwidth_bytes_per_s": math.nan}),
    "links-not-a-list": ("links", 5),
    "link-latency-nan": ("links", [{"from": 0, "to": 1, "latency_s": math.nan}]),
    "link-key-misspelled": ("links", [{"from": 0, "to": 1, "failure_porb": 0.5}]),
    "default-link-key-misspelled": ("default_links", {"failure_prob": 0.5}),
    "master-infinity": ("master", math.inf),
    "node-a-bool": ("nodes", [True]),
    "nodes-a-string": ("nodes", "12"),
    "nodes-list-the-master": ("nodes", [0, 1]),
    "nodes-list-an-id-twice": ("nodes", [1, 1]),
    "node-id-over-u32": ("nodes", [2**40]),
}

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Each shipped config: master, nodes, rng_seed, and the numbers of its every
# link (bandwidth, latency, failure probability).
SHIPPED_CONFIGS = {
    "iot3": (0, (1, 2, 3), 7, 250e3, 0.02, 0.0),
    "iot8": (0, tuple(range(1, 9)), 42, 250e3, 0.02, 0.0),
    "iot8_lossy": (0, tuple(range(1, 9)), 42, 250e3, 0.02, 0.5),
    "lab8": (0, tuple(range(1, 9)), 42, 125e6, 0.0005, 0.0),
}

# What the mutation test puts at each path of a shipped config.
MUTANT_VALUES = [None, True, 1.5, math.nan, math.inf, -math.inf, "", "12", [], {}, 2**70]


def json_paths(value, path=()):
    """Each path into a JSON value and the value there, its own first."""
    yield path, value
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield from json_paths(item, (*path, key))


def put(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def holds_as_written(topo, doc) -> bool:
    """Whether ``topo`` holds exactly what the topology file ``doc`` says:
    an id or seed is a JSON int, not a bool; ids fit u32, are unique, and
    the master is not listed in ``nodes``; each link number is a finite
    JSON number, held as the float equal to it; no other key is set. The
    shipped configs set no ``links``, so no mutant does."""
    if type(doc) is not dict or not doc.keys() <= {"master", "nodes", "preset", "rng_seed", "default_link"}:
        return False
    master, nodes, seed = doc["master"], doc["nodes"], doc.get("rng_seed", 0)
    if type(nodes) is not list or not all(type(n) is int for n in (master, *nodes, seed, topo.master, *topo.nodes, topo.rng_seed)):
        return False
    if len(set(nodes)) != len(nodes) or master in nodes or not all(0 <= n <= 0xFFFFFFFF for n in (master, *nodes)):
        return False
    if (topo.master, topo.nodes, topo.rng_seed) != (master, tuple(sorted(nodes)), seed):
        return False
    preset, default_link = doc.get("preset", "iot"), doc.get("default_link", {})
    if type(preset) is not str or preset not in lm.LINK_PRESETS or type(default_link) is not dict:
        return False
    numbers = {**lm.LINK_PRESETS[preset], "failure_prob": 0.0, **default_link}
    if numbers.keys() != {"bandwidth_bytes_per_s", "latency_s", "failure_prob"}:
        return False
    if not all(type(v) in (int, float) and math.isfinite(v) for v in numbers.values()):
        return False
    everyone = (master, *nodes)
    if topo.links.keys() != {(a, b) for a in everyone for b in everyone if a != b}:
        return False
    return all(type(getattr(link, k)) is float and getattr(link, k) == v for link in topo.links.values() for k, v in numbers.items())


class TestTopology:
    def test_full_mesh_links_every_ordered_pair(self):
        topo = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
        assert len(topo.links) == 4 * 3
        assert topo.link(2, 3).bandwidth_bytes_per_s == 1e6

    def test_missing_link_is_an_error(self):
        topo = lm.Topology.full_mesh(0, [1], bandwidth_bytes_per_s=1e6)
        with pytest.raises(lm.TopologyError):
            topo.link(0, 9)

    def test_master_must_not_be_a_sensor_node(self):
        with pytest.raises(lm.TopologyError):
            lm.Topology(master=1, nodes=(1, 2))
        with pytest.raises(lm.TopologyError, match="lists the master 1"):
            lm.Topology.from_preset("iot", master=1, nodes=[1, 2])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(lm.TopologyError):
            lm.Topology(master=0, nodes=(1, 1))
        with pytest.raises(lm.TopologyError, match="lists a node twice"):
            lm.Topology.from_preset("iot", master=0, nodes=[1, 1, 2])

    def test_presets(self):
        lab = lm.Topology.from_preset("lab", master=0, nodes=[1])
        iot = lm.Topology.from_preset("iot", master=0, nodes=[1])
        assert lab.link(0, 1).bandwidth_bytes_per_s == 125e6
        assert iot.link(0, 1).bandwidth_bytes_per_s == 250e3
        with pytest.raises(lm.TopologyError):
            lm.Topology.from_preset("warp", master=0, nodes=[1])

    def test_from_dict_with_overrides(self):
        topo = lm.Topology.from_dict(
            {
                "master": 0,
                "nodes": [1, 2],
                "rng_seed": 9,
                "default_link": {"bandwidth_bytes_per_s": 1000.0, "latency_s": 0.5},
                "links": [{"from": 1, "to": 2, "latency_s": 0.25}],
            }
        )
        assert topo.rng_seed == 9
        assert topo.link(0, 1).latency_s == 0.5
        assert topo.link(1, 2).latency_s == 0.25
        assert topo.link(1, 2).bandwidth_bytes_per_s == 1000.0

    def test_from_dict_rejects_unknown_bits(self):
        with pytest.raises(lm.TopologyError):
            lm.Topology.from_dict({"master": 0, "nodes": [1], "default_link": {"warp_factor": 9}})
        with pytest.raises(lm.TopologyError):
            lm.Topology.from_dict({"master": 0, "nodes": [1], "links": [{"from": 5, "to": 6}]})
        with pytest.raises(lm.TopologyError):
            lm.Topology.from_dict({"nodes": [1]})

    @pytest.mark.parametrize("key, value", BAD_TOPOLOGY_VALUES.values(), ids=BAD_TOPOLOGY_VALUES)
    def test_a_value_of_the_wrong_type_is_a_topology_error(self, tmp_path, key, value):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"master": 0, "nodes": [1], key: value}))
        with pytest.raises(lm.TopologyError, match=key):
            lm.Topology.from_file(path)

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_a_shipped_config_reads_as_written(self, name):
        master, nodes, seed, *numbers = SHIPPED_CONFIGS[name]
        topo = lm.Topology.from_file(CONFIGS / f"{name}.json")
        assert (topo.master, topo.nodes, topo.rng_seed) == (master, nodes, seed)
        everyone = (master, *nodes)
        assert topo.links == {(a, b): lm.SimLink(a, b, *numbers) for a in everyone for b in everyone if a != b}

    def test_every_one_value_mutation_of_a_shipped_config_is_an_error_or_read_as_written(self):
        # Each value of MUTANT_VALUES at every path of each config, and one
        # unknown key added to each of its objects.
        configs = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
        assert configs.keys() == SHIPPED_CONFIGS.keys()
        wrong = []
        for name, config in configs.items():
            paths = list(json_paths(config))
            mutants = [(path, value) for path, _ in paths for value in MUTANT_VALUES]
            mutants += [(path, {**obj, "unknown": 1}) for path, obj in paths if type(obj) is dict]
            for path, value in mutants:
                doc = put(config, path, value)
                try:
                    topo = lm.Topology.from_dict(copy.deepcopy(doc))
                except lm.TopologyError:
                    continue
                except Exception as exc:
                    wrong.append((name, path, value, exc))
                    continue
                if not holds_as_written(topo, doc):
                    wrong.append((name, path, value, topo))
        assert wrong == []

    def test_from_file(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"master": 0, "nodes": [1], "rng_seed": 3}))
        assert lm.Topology.from_file(path).rng_seed == 3
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(lm.TopologyError):
            lm.Topology.from_file(bad)
        with pytest.raises(lm.TopologyError):
            lm.Topology.from_file(tmp_path / "missing.json")


class TestSimTransportClock:
    def mk(self, latency=0.0, bandwidth=1e6, failure=0.0, seed=0):
        topo = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=bandwidth, latency_s=latency, failure_prob=failure, rng_seed=seed)
        return lm.SimTransport(topo)

    def test_sequential_sends_accumulate_on_one_path(self):
        transport = self.mk()
        first = transport.send(0, 1, b"x" * 1_000_000, at=0.0)
        assert first.completed_at == 1.0
        second = transport.send(1, 2, b"x" * 500_000, at=first.completed_at)
        assert second.completed_at == 1.5

    def test_parallel_paths_take_the_max_not_the_sum(self):
        transport = self.mk()
        a = transport.send(0, 1, b"x" * 1_000_000, at=0.0)
        b = transport.send(0, 2, b"x" * 1_000_000, at=0.0)
        assert a.completed_at == 1.0
        assert b.completed_at == 1.0

    def test_a_dropped_send_raises_with_its_report(self):
        transport = self.mk(latency=0.25, failure=1.0)
        with pytest.raises(lm.TransportFailure, match="link 0->1 dropped 1000 bytes") as info:
            transport.send(0, 1, b"x" * 1000, at=2.0)
        report = info.value.report
        assert not report.delivered
        assert report.bytes == 1000
        assert report.completed_at == 2.25  # at plus the link's latency, what a tour charges a failed attempt


class TestFraming:
    def test_roundtrip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            write_frame(a, b"hello frame")
            assert read_frame(b) == b"hello frame"
            write_frame(a, b"")
            assert read_frame(b) == b""
        finally:
            a.close()
            b.close()

    def test_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert read_frame(b) is None
        finally:
            b.close()

    @pytest.mark.parametrize(
        "sent, error",
        [
            ((lm.transport.MAX_FRAME + 1).to_bytes(4, "big"), "exceeds the cap"),
            ((10).to_bytes(4, "big") + b"abc", "peer closed mid-frame"),
            ((10).to_bytes(4, "big"), "peer closed after the frame header"),
        ],
        ids=["oversized", "closed-mid-payload", "closed-after-header"],
    )
    def test_bad_frame_is_a_connection_error(self, sent, error):
        a, b = socket.socketpair()
        try:
            a.sendall(sent)
            a.close()
            with pytest.raises(ConnectionError, match=error):
                read_frame(b)
        finally:
            b.close()


class TestTcpTransport:
    def test_loopback_send_is_acked(self):
        got = []
        server = FrameServer("127.0.0.1", 0, got.append)
        server.start()
        try:
            transport = lm.TcpTransport({1: (server.host, server.port)})
            report = transport.send(0, 1, b"e" * 32)
            assert report.delivered
            assert report.bytes == 32
            assert report.elapsed_s < 5.0
        finally:
            server.stop()
        assert got == [b"e" * 32]

    def test_server_drops_a_frame_cut_short_and_serves_the_next(self, caplog):
        got = []
        server = FrameServer("127.0.0.1", 0, got.append)
        server.start()
        try:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall((10).to_bytes(4, "big") + b"abc")
            deadline = time.monotonic() + 10.0
            while "peer closed mid-frame" not in caplog.text and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [r.getMessage() for r in caplog.records] == ["dropped inbound connection: peer closed mid-frame"]
            assert lm.TcpTransport({1: (server.host, server.port)}).send(0, 1, b"next").delivered
        finally:
            server.stop()
        assert got == [b"next"]

    def test_server_closes_a_connection_without_a_byte_in_silence_and_serves_the_next(self, caplog, monkeypatch):
        # Each connection's thread reports when it is done, so the empty
        # connection is known to be served before the next frame is sent.
        caplog.set_level(logging.DEBUG, logger="locomap.tcp_node")
        served = queue.Queue()
        serve_one = FrameServer._serve_one
        monkeypatch.setattr(FrameServer, "_serve_one", lambda server, conn: (serve_one(server, conn), served.put(conn)))
        got = []
        server = FrameServer("127.0.0.1", 0, got.append)
        server.start()
        try:
            socket.create_connection((server.host, server.port)).close()
            served.get(timeout=10.0)
            assert got == []
            assert caplog.records == []
            assert lm.TcpTransport({1: (server.host, server.port)}).send(0, 1, b"next").delivered
        finally:
            server.stop()
        assert got == [b"next"]

    def test_closed_port_is_connect_refused(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        transport = lm.TcpTransport({1: ("127.0.0.1", port)}, timeout_s=1.0)
        with pytest.raises(lm.ConnectRefused):
            transport.send(0, 1, b"x")

    def test_a_connect_that_fails_other_than_by_refusal(self):
        # Port -1 fails in getaddrinfo, before any packet is sent.
        transport = lm.TcpTransport({1: ("127.0.0.1", -1)})
        with pytest.raises(lm.TransportFailure, match=r"^connect to node 1 failed: ") as failed:
            transport.send(0, 1, b"x")
        assert isinstance(failed.value.__cause__, socket.gaierror)
        assert not isinstance(failed.value, lm.ConnectRefused)

    def test_peer_that_never_acks_times_out(self):
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        done = threading.Event()

        def swallow():
            conn, _ = silent.accept()
            with conn:
                read_frame(conn)  # read it all, then go quiet
                done.wait(10.0)

        thread = threading.Thread(target=swallow, daemon=True)
        thread.start()
        try:
            transport = lm.TcpTransport({1: ("127.0.0.1", silent.getsockname()[1])}, timeout_s=0.3)
            with pytest.raises(lm.SendTimeout):
                transport.send(0, 1, b"x")
        finally:
            done.set()
            thread.join(timeout=10.0)
            silent.close()

    def test_peer_that_resets_after_reading_the_frame_fails_the_send(self):
        peer = socket.socket()
        peer.bind(("127.0.0.1", 0))
        peer.listen(1)

        def read_then_reset():
            conn, _ = peer.accept()
            read_frame(conn)
            # A zero linger time makes close() send a reset, not a FIN.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()

        thread = threading.Thread(target=read_then_reset, daemon=True)
        thread.start()
        try:
            transport = lm.TcpTransport({1: ("127.0.0.1", peer.getsockname()[1])})
            with pytest.raises(lm.TransportFailure, match=r"^send to node 1 failed: .*reset") as failed:
                transport.send(0, 1, b"x")
            assert not isinstance(failed.value, lm.SendTimeout)
        finally:
            thread.join(timeout=10.0)
            peer.close()

    def test_server_that_cannot_ack_still_runs_the_work_after_the_ack(self, caplog):
        # The handler holds the frame until the peer has reset the
        # connection, so writing the ack fails.
        entered, reset, ran = threading.Event(), threading.Event(), threading.Event()

        def handler(frame):
            entered.set()
            assert reset.wait(10.0)
            return ran.set

        server = FrameServer("127.0.0.1", 0, handler)
        server.start()
        try:
            peer = socket.create_connection((server.host, server.port))
            write_frame(peer, b"x")
            assert entered.wait(10.0)
            # A zero linger time makes close() send a reset, not a FIN.
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            peer.close()
            reset.set()
            assert ran.wait(10.0)
        finally:
            server.stop()
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1 and warnings[0].startswith("could not acknowledge a frame: "), warnings

    def test_work_after_the_ack_that_raises_is_logged_and_the_server_serves_on(self, caplog):
        def fail():
            raise RuntimeError("hosting failed")

        got = []
        server = FrameServer("127.0.0.1", 0, lambda frame: got.append(frame) or (fail if frame == b"bad" else None))
        server.start()
        try:
            transport = lm.TcpTransport({1: (server.host, server.port)})
            assert transport.send(0, 1, b"bad").delivered  # acked before the work runs
            deadline = time.monotonic() + 10.0
            while "work after the ack failed" not in caplog.text and time.monotonic() < deadline:
                time.sleep(0.01)
            assert transport.send(0, 1, b"next").delivered
        finally:
            server.stop()
        assert [(r.getMessage(), r.exc_info[0]) for r in caplog.records] == [("work after the ack failed", RuntimeError)]
        assert got == [b"bad", b"next"]

    def test_a_frame_over_the_cap_fails_before_connecting(self, monkeypatch):
        monkeypatch.setattr(lm.transport, "MAX_FRAME", 1000)
        got = []
        server = FrameServer("127.0.0.1", 0, got.append)
        server.start()
        try:
            transport = lm.TcpTransport({1: (server.host, server.port)})
            assert transport.send(0, 1, b"x" * 1000).delivered
            with pytest.raises(lm.TransportFailure, match=r"^a frame of 1001 bytes to node 1 exceeds the 1000 byte cap$") as failed:
                transport.send(0, 1, b"x" * 1001)
            assert isinstance(failed.value, lm.FrameTooLarge)  # which the retry policy does not retry
        finally:
            server.stop()
        assert got == [b"x" * 1000]

    def test_unknown_destination(self):
        transport = lm.TcpTransport({})
        with pytest.raises(lm.TransportFailure):
            transport.send(0, 1, b"x")
