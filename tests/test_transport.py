import json
import random
import socket
import struct
import threading
import time

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

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(lm.TopologyError):
            lm.Topology(master=0, nodes=(1, 1))

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
