"""Seeded input generators for the benchmark workloads.

Each workload writes one ``node_<id>.tsv`` file per sensor node into a
directory; the program under test only ever sees those files. The same
seed always gives byte-identical files.

``scale`` shrinks record counts for the harness self-test; 1.0 is the
size the benchmark measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DENSE_VOCAB = [f"w{i:03d}" for i in range(1000)]
SPARSE_VOCAB = range(2_000_000)
SPARSE_KINDS = (b"hum", b"light", b"sound")
SPARSE_SELECTOR = b"temp/"
# Nodes that hold no record matching the selector, so skip-empty routing
# passes them by. Fixed rather than seeded to keep the tour shape stable.
SPARSE_EMPTY_NODES = (4, 7)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "sim" or "tcp"
    preset: str  # link preset of the topology
    nodes: tuple[int, ...]
    slave_count: int | None  # None: one slave per node
    selector: bytes
    records_per_node: int


# Why each workload was chosen, and which layers it loads or bypasses, is
# recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-wc-dense",
            mode="sim",
            preset="lab",
            nodes=tuple(range(1, 9)),
            slave_count=None,
            selector=b"",
            records_per_node=40_000,
        ),
        Workload(
            name="sim-sparse-tour",
            mode="sim",
            preset="iot",
            nodes=tuple(range(1, 9)),
            slave_count=1,
            selector=SPARSE_SELECTOR,
            records_per_node=10_000,
        ),
        Workload(
            name="tcp-wc-3node",
            mode="tcp",
            preset="lab",
            nodes=(1, 2, 3),
            slave_count=None,
            selector=b"",
            records_per_node=20_000,
        ),
    )
}


def _wordcount_lines(rng: random.Random, node: int, count: int) -> list[bytes]:
    return [
        b"r%d.%d\t%s\n" % (node, i, " ".join(rng.choices(DENSE_VOCAB, k=8)).encode())
        for i in range(count)
    ]


def _sparse_lines(rng: random.Random, node: int, count: int) -> tuple[list[bytes], int]:
    """Every third record of a non-empty node is a ``temp/`` reading, which
    makes a quarter of all records match over six of eight nodes."""
    lines, matching = [], 0
    has_temp = node not in SPARSE_EMPTY_NODES
    for i in range(count):
        if has_temp and i % 3 == 0:
            kind = b"temp"
            matching += 1
        else:
            kind = SPARSE_KINDS[i % 3]
        words = " ".join("v%07d" % v for v in rng.choices(SPARSE_VOCAB, k=6))
        lines.append(b"%s/n%d/%06d\t%s\n" % (kind, node, i, words.encode()))
    return lines, matching


def generate(workload: Workload, seed: int, out_dir: Path, scale: float = 1.0) -> int:
    """Write the workload's node files; returns the number of records the
    job's selector matches."""
    out_dir.mkdir(parents=True, exist_ok=True)
    count = max(6, int(workload.records_per_node * scale))
    matching = 0
    for node in workload.nodes:
        rng = random.Random(f"{workload.name}/{seed}/{node}")
        if workload.selector:
            lines, hits = _sparse_lines(rng, node, count)
        else:
            lines, hits = _wordcount_lines(rng, node, count), count
        (out_dir / f"node_{node}.tsv").write_bytes(b"".join(lines))
        matching += hits
    return matching
