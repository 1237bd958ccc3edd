"""Acceptance suite: one test per release criterion.

Each test prints a [ACCEPTANCE] PASS/FAIL line via the conftest hook, so
``pytest tests/test_acceptance.py -v`` reads as a checklist.
"""

import json
import logging
import random

import pytest

import locomap as lm
from locomap.cli import main as cli_main

from helpers import (
    RecordingTransport,
    all_values,
    make_cluster,
    random_workload,
    reference_final,
    wordcount_reference,
)


def random_agent(rng: random.Random) -> lm.Agent:
    return lm.Agent(
        id=rng.randrange(0, 2**63),
        role=rng.choice(list(lm.AgentRole)),
        job_id=rng.randrange(0, 2**63),
        # Padding as trailing zeros, drawn after the payload as before.
        payload=rng.randbytes(rng.randrange(0, 400)) + bytes(rng.choice((0, 0, rng.randrange(0, 100)))),
        itinerary=tuple(rng.sample(range(1, 10_000), rng.randrange(0, 8))),
    )


def test_1_baseline_reproduces_reference_costs():
    """Defaults land on the measured 105 s transfer / 158 s total within 1%."""
    transfer_s, total_s = lm.hadoop_baseline(lm.BaselineParams())
    assert 104.9 <= transfer_s <= 106.9
    assert 157.2 <= total_s <= 160.4


def test_2_data_reduction_regime():
    """8-node wordcount over >=1e5 records/node, 1000-word vocabulary:
    the framework moves less than 1% of the raw bytes."""
    rng = random.Random(20_26)
    vocab = [f"w{i:03d}" for i in range(1000)]
    records_per_node = 100_000
    data = {}
    for node_id in range(1, 9):
        data[node_id] = [
            " ".join(rng.choices(vocab, k=8)).encode() for _ in range(records_per_node)
        ]
    cluster, topo = make_cluster(data, bandwidth=1e9, latency_s=0.001, seed=1)
    result = lm.run_job(lm.builtin_job("wordcount", job_id=1), cluster, lm.SimTransport(topo))

    assert result.partials_received == 8
    assert result.raw_data_bytes >= 8 * records_per_node * 40
    report = lm.compare(result, lm.BaselineParams(data_bytes=result.raw_data_bytes))
    assert report.reduction_ratio < 0.01
    assert 0.0 < report.reduction_ratio


def test_3_oracle_equivalence_200_randomized_trials():
    """run_job equals the single-process reference exactly, for wordcount and
    sum, over random clusters, slave counts, seeds and both result paths."""
    rng = random.Random(303)
    for trial in range(200):
        job = "wordcount" if trial % 2 == 0 else "sum"
        results_only = (trial // 2) % 2 == 1
        data = random_workload(rng, job, n_nodes=rng.randrange(1, 9))
        slave_count = rng.randrange(1, 9)
        cluster, topo = make_cluster(data, seed=rng.randrange(2**32))
        spec = lm.builtin_job(job, job_id=1, slave_count=slave_count)
        result = lm.run_job(spec, cluster, lm.SimTransport(topo), results_only=results_only)
        assert result.final == reference_final(job, all_values(data)), f"trial {trial} diverged"
        assert result.partials_received == slave_count
        assert result.slaves_failed == 0


def test_4_cost_curve_shapes_and_callback_count():
    """Duplication and migration costs rise strictly with agent size,
    migration always costs more, and a migration fires exactly two hooks."""
    sizes = [1024, 10 * 1024, 100 * 1024, 1024 * 1024]
    topo = lm.Topology.full_mesh(0, [1], bandwidth_bytes_per_s=250e3, latency_s=0.02, rng_seed=0)

    dup = lm.duplication_experiment(sizes, repeats=3)
    dup_totals = [r.total_s for r in dup]
    assert all(a < b for a, b in zip(dup_totals, dup_totals[1:]))

    callbacks = lm.LifecycleCallbacks()
    mig = lm.migration_experiment(sizes, 3, lm.SimTransport(topo), src=0, dst=1, callbacks=callbacks)
    mig_totals = [r.total_s for r in mig]
    assert all(a < b for a, b in zip(mig_totals, mig_totals[1:]))

    for d, m in zip(dup, mig):
        assert m.total_s > d.total_s

    migrations = len(sizes) * 3
    assert callbacks.depart_count == migrations
    assert callbacks.arrive_count == migrations
    assert callbacks.total == 2 * migrations

    single = lm.LifecycleCallbacks()
    lm.migrate(lm.Agent(id=1, role=lm.AgentRole.SLAVE, job_id=1), 0, 1, lm.SimTransport(topo), single)
    assert (single.depart_count, single.arrive_count) == (1, 1)


def test_5_wire_protocol_roundtrip_and_corruption():
    """10,000 fuzzed agents survive pack/unpack byte-exactly; 1,000 single-bit
    corruptions are all rejected with a typed envelope error."""
    rng = random.Random(505)
    envelopes = []
    for _ in range(10_000):
        agent = random_agent(rng)
        data = lm.pack(agent)
        assert lm.unpack(data) == agent
        envelopes.append(data)

    rejected = 0
    for _ in range(1_000):
        data = bytearray(rng.choice(envelopes))
        bit = rng.randrange(len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(lm.EnvelopeError):
            lm.unpack(bytes(data))
        rejected += 1
    assert rejected == 1_000


@pytest.mark.parametrize("results_only", [False, True])
def test_6_raw_data_never_leaves_a_node(results_only):
    """Sentinel bytes planted in raw records appear in no transport payload;
    only aggregated partials cross the wire."""
    sentinel = b"\xde\xad\xbe\xefRAW-RECORD\xbe\xad"
    data = {n: [b"7", b"35"] for n in range(1, 9)}
    cluster, topo = make_cluster(data, seed=6)
    for node_id in range(1, 9):
        cluster.nodes[node_id].ingest(
            [(sentinel + b"/%d/%d" % (node_id, i), b"100") for i in range(3)]
        )
    transport = RecordingTransport(topo)
    result = lm.run_job(lm.builtin_job("sum", job_id=1), cluster, transport, results_only=results_only)

    assert result.final == {"sum": (7 + 35 + 300) * 8}
    assert transport.sent_payloads, "the run must go through the transport"
    for payload in transport.sent_payloads:
        assert sentinel not in payload
    assert any(b"sum" in p for p in transport.sent_payloads), "aggregates do cross"


def test_7_failure_handling_accounting_and_restricted_oracle():
    """At failure_prob=0.3, accounting always balances and the final equals
    the reference restricted to the partitions of surviving slaves."""
    rng = random.Random(707)
    for trial in range(40):
        job = "wordcount" if trial % 2 == 0 else "sum"
        results_only = (trial // 2) % 2 == 1
        data = random_workload(rng, job, n_nodes=rng.randrange(2, 8))
        cluster, topo = make_cluster(data, seed=rng.randrange(2**32), failure_prob=0.3)
        spec = lm.builtin_job(job, job_id=1)
        try:
            result = lm.run_job(spec, cluster, lm.SimTransport(topo), results_only=results_only)
        except lm.AllSlavesFailed as exc:
            result = exc.result
        assert result.partials_received + result.slaves_failed == result.slave_count
        surviving = [n for r in result.slave_reports if r.delivered for n in r.nodes]
        expected = reference_final(job, [v for n in sorted(surviving) for v in data[n]])
        assert result.final == expected


def test_8_determinism_of_results_and_benchmarks(tmp_path):
    """Identical config and seed give byte-identical result JSON and CSVs."""
    topo_path = tmp_path / "topo.json"
    topo_path.write_text(
        json.dumps(
            {
                "master": 0,
                "nodes": [1, 2, 3, 4],
                "rng_seed": 11,
                "default_link": {"bandwidth_bytes_per_s": 250000.0, "latency_s": 0.02, "failure_prob": 0.1},
            }
        )
    )
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    rng = random.Random(8)
    for node_id in range(1, 5):
        lines = "".join(f"k{i}\t{rng.randrange(100)} {rng.randrange(100)}\n" for i in range(50))
        (data_dir / f"node_{node_id}.tsv").write_text(lines)

    run_outs, bench_outs = [], []
    for tag in ("one", "two"):
        run_out = tmp_path / f"run_{tag}.json"
        code = cli_main(
            ["run", "--mode", "sim", "--topology", str(topo_path), "--data-dir", str(data_dir),
             "--job", "wordcount", "--seed", "11", "--output", str(run_out)]
        )
        assert code == 0
        run_outs.append(run_out.read_bytes())

        bench_out = tmp_path / f"bench_{tag}.csv"
        code = cli_main(
            ["bench", "migration", "--sizes", "1k,10k,100k", "--repeats", "3", "--mode", "sim",
             "--seed", "11", "--output", str(bench_out)]
        )
        assert code == 0
        bench_outs.append(bench_out.read_bytes())

    assert run_outs[0] == run_outs[1]
    assert bench_outs[0] == bench_outs[1]


def test_9_tcp_integration_matches_oracle(tmp_path, caplog):
    """A 3-node loopback TCP run agrees with the reference, with one
    connection visible per migration."""
    caplog.set_level(logging.INFO, logger="locomap.transport")
    node_values = {1: [b"edge compute", b"edge"], 2: [b"node local data"], 3: [b"compute local"]}
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for node_id, values in node_values.items():
        (data_dir / f"node_{node_id}.tsv").write_bytes(b"".join(b"k%d\t%s\n" % (i, v) for i, v in enumerate(values)))

    topology = lm.Topology.full_mesh(0, [1, 2, 3], bandwidth_bytes_per_s=1e6)
    spec = lm.builtin_job("wordcount", job_id=1)
    result = lm.run_tcp_job(spec, topology, data_dir, timeout_s=30.0, log_dir=tmp_path / "logs")

    assert result.final == wordcount_reference([v for vals in node_values.values() for v in vals])
    assert result.partials_received == 3
    assert result.migrations_total == 6

    master_connects = sum("connection opened" in r.message for r in caplog.records)
    node_connects = sum(
        p.read_text().count("connection opened") for p in (tmp_path / "logs").glob("node_*.log")
    )
    # every migration opens its own connection: 3 dispatches from the master
    # (its log also shows job-control connects) and 3 forwards from the nodes
    assert master_connects >= 3
    assert node_connects >= 3
