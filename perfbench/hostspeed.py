"""Host-speed reference for the CPU-bound sim workloads.

The reference machine is a shared VM whose speed for pure-Python work
swings by tens of percent over a minute or two: the same dense job takes
anywhere from 2.3 s to 4.0 s within one process, and the medians of two
sets of runs an hour apart differed by a third. A sim job runs entirely on
the CPU of this process, so its wall time follows that swing.

To take it out, a fixed reference kernel is timed before each timed call
and after the last one. It touches nothing of locomap and does the two
kinds of work the sim jobs do: a pure-Python word count over constant
lines, shaped like the wordcount map+fold, and a canonical-JSON round trip
of a constant 60k-key dict, shaped like the partial codec. The two slow
down differently on this host; together they followed the sparse tour
better than either alone (spread of 30 s window medians 0.03, against
0.05-0.06 for either alone or unscaled). A sim time metric is the median
over calls of the measured seconds times ``REF_S`` over the mean of the two
reference blocks around that call: seconds at the reference machine's
typical speed.

The TCP workload is not scaled: most of its job time is fixed waits (the
collect window, process start-up, sockets), which do not follow CPU speed.
"""

from __future__ import annotations

import functools
import json
import random
import time

COUNTS = 2  # word counts per reference block
ROUND_TRIPS = 1  # JSON round trips per reference block
# Seconds of one reference block at the reference machine's typical speed
# (x86_64 Firecracker VM, 2 vCPUs, CPython 3.11.7).
REF_S = 0.3


@functools.cache
def _lines() -> list[tuple[bytes, bytes]]:
    rng = random.Random(0x4EF)
    vocab = [f"w{i:03d}" for i in range(1000)]
    return [(b"k%d" % i, " ".join(rng.choices(vocab, k=8)).encode()) for i in range(25_000)]


@functools.cache
def _doc() -> dict[str, int]:
    rng = random.Random(0x4EF)
    return {"v%07d" % v: rng.randrange(1, 9) for v in rng.sample(range(2_000_000), 60_000)}


def _emit(value: bytes):
    for word in value.decode("utf-8", "replace").split():
        yield (word, 1)


def reference_block() -> float:
    """Seconds one fixed block of reference work takes right now."""
    lines, doc = _lines(), _doc()
    t0 = time.perf_counter()
    for _ in range(COUNTS):
        counts: dict[str, int] = {}
        for _key, value in lines:
            for word, n in _emit(value):
                counts[word] = counts.get(word, 0) + n
    for _ in range(ROUND_TRIPS):
        json.loads(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode().decode())
    return time.perf_counter() - t0


def interleaved(fn, seconds: float, at_least: int) -> tuple[list, list[float]]:
    """Call ``fn`` until ``seconds`` have passed and it ran ``at_least``
    times, timing a reference block before the first call and after each.
    Returns the results of ``fn`` and the reference times."""
    _lines(), _doc()
    out, refs = [], [reference_block()]
    deadline = time.perf_counter() + seconds
    while len(out) < at_least or time.perf_counter() < deadline:
        out.append(fn())
        refs.append(reference_block())
    return out, refs


def factors(refs: list[float]) -> list[float]:
    """Per call of :func:`interleaved`, the scale from measured seconds to
    seconds at the reference speed, taken from the blocks on either side
    of it, so that a swing in speed during a run is followed call by call."""
    return [2 * REF_S / (before + after) for before, after in zip(refs, refs[1:])]
