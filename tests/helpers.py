"""Independent reference implementations the tests check the library against.

Nothing in here may call into locomap's own codecs or folds: the CRC is
computed bit by bit from the polynomial, and the workload references are
plain Counter/sum arithmetic over the raw values. ``process_running``
reads a process's state from ``/proc``, for the tests that check that no
node outlives its job.
"""

from __future__ import annotations

import random
from collections import Counter

import locomap as lm


def crc32_reference(data: bytes) -> int:
    """Reflected CRC-32 (poly 0xEDB88320), one bit at a time."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


def wordcount_reference(values: list[bytes]) -> dict:
    counts: Counter = Counter()
    for value in values:
        counts.update(value.decode("utf-8", "replace").split())
    return dict(counts)


def sum_reference(values: list[bytes]) -> dict:
    numbers = [int(v) for v in values]
    return {"sum": sum(numbers)} if numbers else {}


def reference_final(job: str, values: list[bytes]) -> dict:
    return wordcount_reference(values) if job == "wordcount" else sum_reference(values)


def make_cluster(
    node_values: dict[int, list[bytes]],
    master: int = 0,
    bandwidth: float = 1_000_000.0,
    latency_s: float = 0.005,
    failure_prob: float = 0.0,
    seed: int = 0,
    mem_limit: int = 1 << 30,
) -> tuple[lm.Cluster, lm.Topology]:
    """Cluster with the given per-node record values (keys are synthesized)."""
    topology = lm.Topology.full_mesh(
        master=master,
        nodes=sorted(node_values),
        bandwidth_bytes_per_s=bandwidth,
        latency_s=latency_s,
        failure_prob=failure_prob,
        rng_seed=seed,
    )
    cluster = lm.Cluster.from_topology(topology, mem_bytes_limit=mem_limit)
    for node_id, values in node_values.items():
        records = [(b"r%d.%d" % (node_id, i), v) for i, v in enumerate(values)]
        cluster.nodes[node_id].ingest(records)
    return cluster, topology


def heap_pairs(heap: lm.HeapStore, selector: bytes = b"") -> list[tuple[bytes, bytes]]:
    """The heap's matching records as (key, value) pairs, in scan order."""
    return list(heap.records_matching(selector))


class RecordingTransport(lm.SimTransport):
    """SimTransport that keeps every payload it is asked to send."""

    def __init__(self, topology: lm.Topology):
        super().__init__(topology)
        self.sent_payloads: list[bytes] = []

    def send(self, src, dst, payload: bytes, at: float = 0.0):
        self.sent_payloads.append(payload)
        return super().send(src, dst, payload, at=at)


def random_workload(rng: random.Random, job: str, n_nodes: int) -> dict[int, list[bytes]]:
    """Random per-node values for a built-in job; some nodes may be empty."""
    vocab = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"]
    data: dict[int, list[bytes]] = {}
    for node_id in range(1, n_nodes + 1):
        count = rng.randrange(0, 6)
        if job == "wordcount":
            data[node_id] = [
                " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 5))).encode()
                for _ in range(count)
            ]
        else:
            data[node_id] = [str(rng.randrange(-1000, 1000)).encode() for _ in range(count)]
    return data


def all_values(node_values: dict[int, list[bytes]]) -> list[bytes]:
    out = []
    for node_id in sorted(node_values):
        out.extend(node_values[node_id])
    return out


def process_running(pid: int) -> bool:
    """True unless the process is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
