"""Network transports: a deterministic simulator and a real TCP mode.

The simulator is discrete-event: no sleeps, no wall clock, no unseeded
randomness. A send on a link takes exactly latency + bytes/bandwidth
seconds and fails with the link's seeded failure probability. That makes
desk-scale tests able to sweep gigabyte-scale scenarios instantly and
byte-for-byte reproducibly.

TCP mode speaks the same envelope bytes over real sockets. Framing is a
4-byte big-endian length prefix followed by the payload; the receiver
answers with a single 0x06 acknowledgement byte. One fresh connection is
opened per send, so connection setup is paid per migration.
"""

from __future__ import annotations

import json
import logging
import random
import socket
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .agents import NodeId
from .errors import ConnectRefused, FrameTooLarge, SendTimeout, TopologyError, TransportFailure

logger = logging.getLogger("locomap.transport")

ACK = b"\x06"
MAX_FRAME = 256 * 1024 * 1024

# Named link presets. The bandwidth figures are the interesting part
# (wired lab gear vs a constrained radio); the latencies are plausible
# defaults, not measurements.
LINK_PRESETS: dict[str, dict[str, float]] = {
    "lab": {"bandwidth_bytes_per_s": 125e6, "latency_s": 0.0005},
    "iot": {"bandwidth_bytes_per_s": 250e3, "latency_s": 0.02},
}


@dataclass(frozen=True)
class SimLink:
    """One directed link in the simulated network."""

    src: NodeId
    dst: NodeId
    bandwidth_bytes_per_s: float
    latency_s: float = 0.0
    failure_prob: float = 0.0

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0:
            raise TopologyError("link bandwidth must be positive")
        if self.latency_s < 0:
            raise TopologyError("link latency must be non-negative")
        if not 0.0 <= self.failure_prob <= 1.0:
            raise TopologyError("failure probability must be in [0, 1]")


@dataclass(frozen=True)
class DeliveryReport:
    """Outcome of one send. A send that fails raises TransportFailure, which
    carries the report when the transport has one (the simulator's always);
    there ``delivered`` is False and ``bytes`` were attempted, not
    delivered. ``completed_at`` is on the sim clock; TCP leaves it 0."""

    delivered: bool
    elapsed_s: float
    bytes: int
    connect_s: float = 0.0
    transfer_s: float = 0.0
    completed_at: float = 0.0


def sim_send(link: SimLink, payload_bytes: int, rng: random.Random) -> DeliveryReport:
    """The simulator's timing primitive: the report of a send issued at 0.

    elapsed is exactly latency + bytes/bandwidth on success; a failed send
    costs the latency (the envelope died in flight).
    """
    if rng.random() < link.failure_prob:
        return DeliveryReport(
            delivered=False,
            elapsed_s=link.latency_s,
            bytes=payload_bytes,
            connect_s=link.latency_s,
            transfer_s=0.0,
            completed_at=link.latency_s,
        )
    transfer = payload_bytes / link.bandwidth_bytes_per_s
    return DeliveryReport(
        delivered=True,
        elapsed_s=link.latency_s + transfer,
        bytes=payload_bytes,
        connect_s=link.latency_s,
        transfer_s=transfer,
        completed_at=link.latency_s + transfer,
    )


@dataclass
class Topology:
    """Nodes, directed links and the master designation for one network."""

    master: NodeId
    nodes: tuple[NodeId, ...]
    links: dict[tuple[NodeId, NodeId], SimLink] = field(default_factory=dict)
    rng_seed: int = 0

    def __post_init__(self):
        self.nodes = tuple(sorted(self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError("duplicate node ids in topology")
        if self.master in self.nodes:
            raise TopologyError("master must not appear in the sensor node list")

    def link(self, src: NodeId, dst: NodeId) -> SimLink:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src} -> {dst} in topology") from None

    @classmethod
    def full_mesh(
        cls,
        master: NodeId,
        nodes,
        bandwidth_bytes_per_s: float,
        latency_s: float = 0.0,
        failure_prob: float = 0.0,
        rng_seed: int = 0,
    ) -> "Topology":
        """Fully connected topology with uniform link parameters."""
        everyone = sorted(set(nodes) | {master})
        links = {
            (a, b): SimLink(a, b, bandwidth_bytes_per_s, latency_s, failure_prob)
            for a in everyone
            for b in everyone
            if a != b
        }
        return cls(master=master, nodes=tuple(n for n in everyone if n != master), links=links, rng_seed=rng_seed)

    @classmethod
    def from_preset(
        cls, name: str, master: NodeId, nodes, failure_prob: float = 0.0, rng_seed: int = 0
    ) -> "Topology":
        try:
            params = LINK_PRESETS[name]
        except KeyError:
            raise TopologyError(f"unknown link preset {name!r}, have {sorted(LINK_PRESETS)}") from None
        return cls.full_mesh(master, nodes, failure_prob=failure_prob, rng_seed=rng_seed, **params)

    @classmethod
    def from_dict(cls, doc: dict) -> "Topology":
        """Build from the documented JSON topology schema."""
        try:
            master = int(doc["master"])
            nodes = [int(n) for n in doc["nodes"]]
            rng_seed = int(doc.get("rng_seed", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(f"topology needs integer 'master' and 'nodes', and an integer 'rng_seed' if any: {exc}") from exc
        preset = doc.get("preset", "iot")
        if type(preset) is not str or preset not in LINK_PRESETS:
            raise TopologyError(f"unknown preset {preset!r}, have {sorted(LINK_PRESETS)}")
        defaults = dict(LINK_PRESETS[preset], failure_prob=0.0)
        overrides = doc.get("default_link", {})
        try:
            defaults.update({key: float(value) for key, value in overrides.items()})
        except (AttributeError, TypeError, ValueError) as exc:
            raise TopologyError(f"bad default_link {overrides!r}: {exc}") from exc
        unknown = set(overrides) - {"bandwidth_bytes_per_s", "latency_s", "failure_prob"}
        if unknown:
            raise TopologyError(f"unknown default_link keys: {sorted(unknown)}")
        topo = cls.full_mesh(master, nodes, rng_seed=rng_seed, **defaults)
        for entry in doc.get("links", []):
            try:
                link = SimLink(
                    src=int(entry["from"]),
                    dst=int(entry["to"]),
                    bandwidth_bytes_per_s=float(entry.get("bandwidth_bytes_per_s", defaults["bandwidth_bytes_per_s"])),
                    latency_s=float(entry.get("latency_s", defaults["latency_s"])),
                    failure_prob=float(entry.get("failure_prob", defaults["failure_prob"])),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TopologyError(f"bad link entry {entry!r}: {exc}") from exc
            if (link.src, link.dst) not in topo.links:
                raise TopologyError(f"link override {link.src}->{link.dst} names unknown nodes")
            topo.links[(link.src, link.dst)] = link
        return topo

    @classmethod
    def from_file(cls, path) -> "Topology":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise TopologyError(f"cannot read topology file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise TopologyError(f"topology file is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


# Deterministic CPU-side costs for the simulator. Real pack/unpack work
# still runs; only the *reported* durations come from these rates, so
# repeated runs produce identical timing files. They are roughly
# memcpy-class hardware: they set the scale, and the tests only rely on
# ordering and monotonicity.
SIM_COPY_BYTES_PER_S = 1.0e9
SIM_CHECKSUM_BYTES_PER_S = 4.0e9
SIM_FIXED_OP_S = 200e-6
SIM_CALLBACK_S = 50e-6
SIM_VERIFY_OVERHEAD_S = 25e-6


def sim_duplication_times(payload_bytes: int) -> tuple[float, float]:
    """Modeled (copy_s, callback_s) for duplicating one agent."""
    return SIM_FIXED_OP_S + payload_bytes / SIM_COPY_BYTES_PER_S, 2 * SIM_CALLBACK_S


class SimTransport:
    """Seeded simulated network with no queue: a send issued at ``at``
    completes at ``at + elapsed_s``, whatever else is on its link.

    A dropped send raises TransportFailure carrying its undelivered report,
    as a failed TCP send raises; the only state is the seeded drop draw.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._rng = random.Random(topology.rng_seed)

    def send(self, src: NodeId, dst: NodeId, payload: bytes, at: float = 0.0) -> DeliveryReport:
        report = sim_send(self.topology.link(src, dst), len(payload), self._rng)
        report = replace(report, completed_at=at + report.elapsed_s)
        if not report.delivered:
            raise TransportFailure(f"link {src}->{dst} dropped {len(payload)} bytes", report=report)
        return report

    def cpu_phase_times(self, envelope_bytes: int) -> tuple[float, float, float]:
        """Modeled (prepare_s, unpack_s, verify_s) for one migration."""
        side = SIM_FIXED_OP_S + envelope_bytes / SIM_COPY_BYTES_PER_S + SIM_CALLBACK_S
        verify = SIM_VERIFY_OVERHEAD_S + envelope_bytes / SIM_CHECKSUM_BYTES_PER_S
        return side, side, verify


# --- TCP framing -----------------------------------------------------------


def recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly n bytes; None on clean EOF before any byte."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if remaining == n:
                return None
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(len(payload).to_bytes(4, "big") + payload)


def read_frame(sock: socket.socket) -> bytes | None:
    header = recv_exact(sock, 4)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise ConnectionError(f"declared frame of {length} bytes exceeds the cap")
    payload = recv_exact(sock, length)
    if payload is None and length:
        raise ConnectionError("peer closed after the frame header")
    return payload if payload is not None else b""


class TcpTransport:
    """Connection-per-send TCP transport over a node address map."""

    def __init__(self, addresses: dict[NodeId, tuple[str, int]], timeout_s: float = 5.0):
        self.addresses = dict(addresses)
        self.timeout_s = timeout_s

    def send(self, src: NodeId, dst: NodeId, payload: bytes, at: float = 0.0) -> DeliveryReport:
        try:
            host, port = self.addresses[dst]
        except KeyError:
            raise TransportFailure(f"no address known for node {dst}") from None
        if len(payload) > MAX_FRAME:
            raise FrameTooLarge(f"a frame of {len(payload)} bytes to node {dst} exceeds the {MAX_FRAME} byte cap")
        t0 = time.perf_counter()
        try:
            sock = socket.create_connection((host, port), timeout=self.timeout_s)
        except ConnectionRefusedError as exc:
            raise ConnectRefused(f"node {dst} at {host}:{port} refused the connection") from exc
        except OSError as exc:
            raise TransportFailure(f"connect to node {dst} failed: {exc}") from exc
        connect_s = time.perf_counter() - t0
        logger.info("tcp connection opened %s -> %s (%d bytes)", src, dst, len(payload))
        try:
            sock.settimeout(self.timeout_s)
            write_frame(sock, payload)
            ack = recv_exact(sock, 1)
        except socket.timeout as exc:
            raise SendTimeout(f"node {dst} did not acknowledge within {self.timeout_s}s") from exc
        except OSError as exc:
            raise TransportFailure(f"send to node {dst} failed: {exc}") from exc
        finally:
            sock.close()
        if ack != ACK:
            raise SendTimeout(f"node {dst} closed without acknowledging")
        elapsed = time.perf_counter() - t0
        return DeliveryReport(
            delivered=True,
            elapsed_s=elapsed,
            bytes=len(payload),
            connect_s=connect_s,
            transfer_s=elapsed - connect_s,
        )

    def cpu_phase_times(self, envelope_bytes: int) -> None:
        return None
