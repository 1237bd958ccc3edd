"""Self-test of the benchmark harness at tiny input sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, covered, self_times  # noqa: E402

TINY = ["--seconds", "0.2", "--scale", "0.005"]


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("root", 0, 10, None, "j"),
        Span("a", 1, 4, 0, "j"),
        Span("b", 3, 6, 0, "j"),  # overlaps a
        Span("c", 8, 12, 0, "j"),  # runs past its parent
        Span("a.child", 2, 3, 1, "j"),
    ]
    assert self_times(spans) == pytest.approx([3, 2, 3, 4, 1])


def test_each_call_is_scaled_by_the_reference_blocks_around_it(monkeypatch):
    blocks = iter([1.0, 3.0, 1.0, 0.5])
    monkeypatch.setattr(hostspeed, "reference_block", lambda: next(blocks))
    calls = iter([10.0, 20.0, 30.0])
    out, refs = hostspeed.interleaved(lambda: next(calls), 0.0, 3)
    assert out == [10.0, 20.0, 30.0] and refs == [1.0, 3.0, 1.0, 0.5]
    scale = [f / hostspeed.REF_S for f in hostspeed.factors(refs)]
    assert scale == pytest.approx([1 / 2, 1 / 2, 1 / 0.75])


def test_tcp_phases_partition_the_job_and_take_their_sends():
    tracer = Tracer()
    tracer.job = "job0"
    spans = [
        ("tcp_cluster.run_tcp_job", 0.0, 10.0, None, ""),
        ("tcp_cluster.ready", 2.0, 2.0, 0, ""),
        ("transport.tcp_send", 2.1, 2.2, 0, "register"),
        ("envelope.pack", 2.3, 2.4, 0, ""),
        ("transport.tcp_send", 2.4, 2.5, 0, "dispatch"),
        ("transport.tcp_send", 8.0, 8.1, 0, "shutdown"),
        ("orchestration.aggregate", 9.0, 9.5, 0, ""),
    ]
    tracer.spans = [Span(n, s, e, p, "job0", t) for n, s, e, p, t in spans]
    tracer.add_tcp_phases()
    row = tracer.per_job()["job0"]
    assert row["job"] == pytest.approx(10.0)
    assert row["tcp_cluster.spawn_ready"] == pytest.approx(2.0)
    assert row["tcp_cluster.register"] == pytest.approx(0.2 - 0.1)
    assert row["tcp_cluster.dispatch"] == pytest.approx(0.3 - 0.2)
    assert row["tcp_cluster.collect"] == pytest.approx(5.5)
    assert row["tcp_cluster.teardown"] == pytest.approx(1.0 - 0.1)
    assert row["tcp_cluster.run_tcp_job"] == pytest.approx(0.5)
    shares = sum(v for k, v in row.items() if k != "job")
    assert shares == pytest.approx(row["job"])


def test_install_and_uninstall_restore_every_name():
    from locomap import envelope, nodes, orchestration, tcp_cluster

    before = (orchestration.migrate, nodes.SensorNode.host, tcp_cluster.aggregate, envelope.pack)
    tracer = Tracer()
    tracer.install()
    assert orchestration.migrate is not before[0]
    tracer.uninstall()
    assert (orchestration.migrate, nodes.SensorNode.host, tcp_cluster.aggregate, envelope.pack) == before


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_each_workload_prints_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--trace", trace, *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench_spec()["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_every_workload():
    spec = bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def test_a_wrong_answer_exits_nonzero_without_a_result(monkeypatch, capsys):
    import locomap

    monkeypatch.setattr(locomap, "sequential_oracle", lambda *a, **k: {"nothing": 1})
    assert run.main(["--workload", "sim-wc-dense", "--seed", "1", *TINY]) == 1
    assert "{" not in capsys.readouterr().out


def test_nondeterministic_sim_output_exits_nonzero(monkeypatch, capsys):
    from locomap import orchestration

    real = orchestration.run_job
    calls = []

    def drifting(*args, **kwargs):
        calls.append(1)
        return dataclasses.replace(real(*args, **kwargs), wall_time_s=float(len(calls)))

    monkeypatch.setattr(orchestration, "run_job", drifting)
    assert run.main(["--workload", "sim-sparse-tour", "--seed", "1", *TINY]) == 1
    assert "{" not in capsys.readouterr().out


def test_fails_in_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-wc-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
