"""Closed-loop benchmark for locomap: one client submits one job at a time
and waits for it.

    python3 perfbench/run.py --workload sim-wc-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from ``--seed`` into ``perfbench/_work``
and removed afterwards. Every job is checked against
``sequential_oracle`` and the ``partials_received + slaves_failed ==
slave_count`` invariant; sim results must be byte-identical across
repetitions, and TCP migrations and wire bytes must equal the sim
engine's for the same files and plan. Any mismatch exits with code 1
and prints no result.

The last line of stdout is one JSON object. With ``--trace 0`` it holds
the end-to-end metrics, measured with nothing patched; sim time metrics
are scaled to the reference machine's speed by a reference kernel timed
between jobs (see ``hostspeed.py``). With ``--trace 1``
it holds the per-layer metrics of a separate traced pass (see
``tracer.py``); the spans are written to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import resource
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from hostspeed import factors, interleaved  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

SETUP_REPS = 3  # at least this many loads, and
SETUP_SECONDS = 4.0  # at least this long in total
PROBES = 12
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
JOB_ID = 1
TCP_TIMEOUT_S = 60.0

END_TO_END = [
    ("job_s", "s"),
    ("records_per_s", "records/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wire_bytes", "bytes"),
]

# (metric, unit, key in the per-job rows of Tracer.per_job); rates and
# set-up figures are filled in by layer_metrics.
PER_JOB = [
    ("nodes.scan_s", "s", "nodes.scan"),
    ("nodes.has_match_calls", "count", "nodes.has_match_calls"),
    ("nodes.host_self_s", "s", "nodes.host"),
    ("registry.map_fold_s", "s", "registry.map_fold"),
    ("registry.encode_s", "s", "registry.encode"),
    ("registry.decode_s", "s", "registry.decode"),
    ("registry.partial_bytes", "bytes", "registry.partial_bytes"),
    ("envelope.pack_s", "s", "envelope.pack"),
    ("envelope.check_s", "s", "envelope.check"),
    ("envelope.migrate_self_s", "s", "envelope.migrate"),
    ("envelope.bytes", "bytes", "envelope.bytes"),
    ("transport.sends", "count", "transport.sends"),
    ("transport.send_failures", "count", "transport.send_failures"),
    ("transport.sim_send_s", "s", "transport.sim_send"),
    ("transport.tcp_sends", "count", "transport.tcp_sends"),
    ("transport.tcp_connect_s", "s", "transport.tcp_connect_s"),
    ("transport.tcp_transfer_s", "s", "transport.tcp_transfer_s"),
    ("orchestration.aggregate_s", "s", "orchestration.aggregate"),
    ("orchestration.self_s", "s", "orchestration.run_job"),
    ("orchestration.retries", "count", "orchestration.retries"),
    ("tcp_cluster.spawn_ready_s", "s", "tcp_cluster.spawn_ready"),
    ("tcp_cluster.register_s", "s", "tcp_cluster.register"),
    ("tcp_cluster.dispatch_s", "s", "tcp_cluster.dispatch"),
    ("tcp_cluster.collect_s", "s", "tcp_cluster.collect"),
    ("tcp_cluster.teardown_s", "s", "tcp_cluster.teardown"),
]
DERIVED = [
    ("nodes.ingest_s", "s"),
    ("nodes.ingest_records_per_s", "records/s"),
    ("registry.emissions_per_s", "emissions/s"),
    ("envelope.pack_gbps", "GB/s"),
    ("tcp_node.spawn_ready_s", "s"),
    ("trace.job_s", "s"),
    ("trace.overhead_s", "s"),
]
UNITS = dict([(m, u) for m, u in END_TO_END] + [(m, u) for m, u, _ in PER_JOB] + DERIVED)
# Span name -> the layer whose busy time its self time is, for the share
# table of a traced run (keys ending in _s are summed counts, not spans).
# Two spans have no per-layer metric of their own.
SHARES = {key: metric for metric, unit, key in PER_JOB if unit == "s" and not key.endswith("_s")}
SHARES.update({"transport.tcp_send": "transport.tcp_send_s", "tcp_cluster.run_tcp_job": "tcp_cluster.self_s"})


class Mismatch(Exception):
    """A job's output or accounting disagrees with the reference."""


def modeled(result) -> dict:
    """The sim clock's view of a job; reported apart from wall-clock metrics."""
    return {
        "wall_time_s": result.wall_time_s,
        "migrations_total": result.migrations_total,
        "wire_bytes": result.bytes_transferred_total,
    }


def median_of(rows: list[dict[str, float]], key: str) -> float:
    return statistics.median(row.get(key, 0.0) for row in rows) if rows else 0.0


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Bench:
    """One workload at one seed: inputs, reference and measurements."""

    def __init__(self, lm, workload: Workload, seed: int, data_dir: Path, matching: int):
        self.lm = lm
        self.workload = workload
        self.data_dir = data_dir
        self.matching = matching
        self.topology = lm.Topology.from_preset(workload.preset, master=0, nodes=workload.nodes, rng_seed=seed)
        self.spec = lm.builtin_job(
            "wordcount", job_id=JOB_ID, slave_count=workload.slave_count, selector=workload.selector
        )
        self.oracle = lm.sequential_oracle(self.spec.task, self.spec.combine, self._file_records())
        self.jobs: list[tuple[float, float]] = []  # (wall s, cpu s) of untraced timed jobs
        self.setups: list[float] = []
        # Reference block times around the untraced sim set-ups and jobs
        # (see hostspeed.py); empty where times are reported unscaled.
        self.setup_refs: list[float] = []
        self.job_refs: list[float] = []
        self.slaves = 0
        self.failed = 0
        self.wire_bytes = 0
        self.modeled: dict = {}
        self.sim_reference: str | None = None
        self.tracer: Tracer | None = None
        self.traced_jobs: list[str] = []
        self.traced_setups: list[str] = []
        self.probe_times: list[float] = []
        self.sim_expect: tuple[int, int] | None = None
        self.traced_walls: list[float] = []

    def _file_records(self):
        for node in self.workload.nodes:
            yield from self.lm.load_records_tsv(self.data_dir / f"node_{node}.tsv")

    # -- sim --

    def load_cluster(self):
        """Ingest every node file into a fresh cluster, as ``locomap run`` does."""
        from locomap import nodes

        cluster = self.lm.Cluster.from_topology(self.topology)
        for node in self.workload.nodes:
            cluster.nodes[node].ingest(nodes.load_records_tsv(self.data_dir / f"node_{node}.tsv"))
        return cluster

    def sim_job(self, cluster):
        from locomap import orchestration

        return orchestration.run_job(self.spec, cluster, self.lm.SimTransport(self.topology))

    def check_sim(self, result) -> None:
        self.check(result)
        doc = json.dumps(result.to_json_dict(), sort_keys=True, indent=2)  # as `locomap run --output` writes it
        if self.sim_reference is None:
            self.sim_reference = doc
            self.modeled = modeled(result)
        elif doc != self.sim_reference:
            raise Mismatch("sim JobResult differs between repetitions with one seed")

    # -- tcp --

    def tcp_job(self):
        from locomap import tcp_cluster

        return tcp_cluster.run_tcp_job(self.spec, self.topology, self.data_dir, timeout_s=TCP_TIMEOUT_S)

    def check_tcp(self, result) -> None:
        self.check(result)
        got = (result.migrations_total, result.bytes_transferred_total)
        if got != self.sim_expect:
            raise Mismatch(f"tcp migrations/wire bytes {got} differ from the sim engine's {self.sim_expect}")

    def probe_node_spawn(self) -> float:
        """Spawn one node process on node 1's file against our own
        FrameServer; seconds from spawn until its node_ready arrives."""
        from locomap.tcp_node import FrameServer, decode_control, encode_control
        from locomap.transport import write_frame

        events: queue.Queue = queue.Queue()
        server = FrameServer("127.0.0.1", 0, events.put)
        server.start()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        node = self.workload.nodes[0]
        cmd = [
            sys.executable, "-m", "locomap.tcp_node", "--node-id", str(node),
            "--master", f"{server.host}:{server.port}",
            "--data-file", str(self.data_dir / f"node_{node}.tsv"),
        ]
        proc = None
        try:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, stderr=subprocess.DEVNULL)
            doc = decode_control(events.get(timeout=TCP_TIMEOUT_S))
            elapsed = time.perf_counter() - started
            if doc.get("type") != "node_ready":
                raise Mismatch(f"probe node sent {doc.get('type')!r} before node_ready")
            with socket.create_connection((doc["host"], int(doc["port"])), timeout=10.0) as sock:
                write_frame(sock, encode_control({"type": "shutdown"}))
                sock.recv(1)
            proc.wait(timeout=10.0)
            return elapsed
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
            server.stop()

    # -- shared --

    def check(self, result) -> None:
        if result.partials_received + result.slaves_failed != result.slave_count:
            raise Mismatch("partials_received + slaves_failed != slave_count")
        if result.final != self.oracle:
            raise Mismatch("final differs from sequential_oracle")
        self.slaves += result.slave_count
        self.failed += result.slaves_failed

    def timed(self, run, check):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        result = run()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        check(result)
        self.wire_bytes = result.bytes_transferred_total
        return wall, cpu

    def under_trace(self, job: str, fn):
        """Run ``fn`` with the tracer installed, its spans filed under ``job``."""
        self.tracer.job = job
        self.tracer.install()
        try:
            return fn()
        finally:
            self.tracer.uninstall()

    def measure(self, seconds: float, trace: bool) -> None:
        sim = self.workload.mode == "sim"
        if trace:
            self.tracer = Tracer()
        if sim:
            cluster = None

            def setup():
                nonlocal cluster
                cluster = None  # free the previous heaps before timing the next load
                t0 = time.perf_counter()
                cluster = self.load_cluster()
                return time.perf_counter() - t0

            if trace:
                while len(self.setups) < SETUP_REPS or sum(self.setups) < SETUP_SECONDS:
                    job = f"setup{len(self.setups)}"
                    self.traced_setups.append(job)
                    self.setups.append(self.under_trace(job, setup))
            else:
                self.setups, self.setup_refs = interleaved(setup, SETUP_SECONDS, SETUP_REPS)
            run, check = (lambda: self.sim_job(cluster)), self.check_sim
        else:
            self.probe_times = [self.probe_node_spawn() for _ in range(PROBES)]
            self.setups = list(self.probe_times)
            expect = self.lm.run_job(self.spec, self.load_cluster(), self.lm.SimTransport(self.topology))
            self.check(expect)
            self.sim_expect = (expect.migrations_total, expect.bytes_transferred_total)
            self.modeled = modeled(expect)
            run, check = self.tcp_job, self.check_tcp
            self.timed(run, check)  # the first job after start-up runs slow; checked, not recorded
        if not trace:
            if sim:
                self.jobs, self.job_refs = interleaved(lambda: self.timed(run, check), seconds, MIN_JOBS)
            else:
                self.jobs = repeat(lambda: self.timed(run, check), seconds, MIN_JOBS)
            return
        self.jobs = repeat(lambda: self.timed(run, check), seconds / 2, MIN_TRACED_JOBS)

        def traced_job():
            job = f"job{len(self.traced_jobs)}"
            self.traced_jobs.append(job)
            return self.under_trace(job, lambda: self.timed(run, check))[0]

        self.traced_walls = repeat(traced_job, seconds / 2, MIN_TRACED_JOBS)
        if not sim:
            self.tracer.add_tcp_phases()

    # -- reporting --

    def scales(self) -> tuple[list[float], list[float]]:
        """Host-speed factors for each set-up and each job; 1.0 where unscaled."""
        return (
            factors(self.setup_refs) if self.setup_refs else [1.0] * len(self.setups),
            factors(self.job_refs) if self.job_refs else [1.0] * len(self.jobs),
        )

    def end_to_end(self) -> dict[str, float]:
        setup_scale, job_scale = self.scales()
        job_s = statistics.median(wall * f for (wall, _), f in zip(self.jobs, job_scale))
        if self.workload.mode == "sim":
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "job_s": job_s,
            "records_per_s": self.matching / job_s,
            "setup_s": statistics.median(s * f for s, f in zip(self.setups, setup_scale)),
            "cpu_s": statistics.median(cpu * f for (_, cpu), f in zip(self.jobs, job_scale)),
            "peak_rss_mb": rss_kb / 1024,
            "wire_bytes": self.wire_bytes,
        }

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics (medians over traced jobs) and each self-time
        bucket's median share of the traced job time."""
        rows = self.tracer.per_job()
        jobs = [rows[j] for j in self.traced_jobs]
        setups = [rows[s] for s in self.traced_setups]
        out = {metric: median_of(jobs, key) for metric, _, key in PER_JOB}

        def ratio(rows_, num, den, scale=1.0):
            values = [r.get(num, 0.0) / r[den] * scale if r.get(den) else 0.0 for r in rows_]
            return statistics.median(values) if values else 0.0

        untraced = statistics.median(wall for wall, _ in self.jobs)
        traced = statistics.median(self.traced_walls)
        out.update(
            {
                "nodes.ingest_s": median_of(setups, "nodes.ingest"),
                "nodes.ingest_records_per_s": ratio(setups, "nodes.records", "nodes.ingest"),
                "registry.emissions_per_s": ratio(jobs, "registry.emissions", "registry.map_fold"),
                "envelope.pack_gbps": ratio(jobs, "envelope.bytes", "envelope.pack", 1e-9),
                "tcp_node.spawn_ready_s": statistics.median(self.probe_times) if self.probe_times else 0.0,
                "trace.job_s": traced,
                "trace.overhead_s": traced - untraced,
            }
        )
        shares = {}
        for span_name, metric in SHARES.items():
            shares[metric] = statistics.median(r.get(span_name, 0.0) / r["job"] for r in jobs)
        return out, shares


def repeat(fn, seconds: float, at_least: int) -> list:
    """Call ``fn`` until ``seconds`` have passed and it ran ``at_least`` times."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < at_least or time.perf_counter() < deadline:
        out.append(fn())
    return out


def machine() -> dict:
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "processor": platform.processor(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed job loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink inputs (self-test only)")
    args = parser.parse_args(argv)

    if not (SRC / "locomap" / "__init__.py").is_file():
        print(f"perfbench: no locomap sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import locomap as lm

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload.name}-") as tmp:
            data_dir = Path(tmp)
            matching = generate(workload, args.seed, data_dir, args.scale)
            bench = Bench(lm, workload, args.seed, data_dir, matching)
            bench.measure(args.seconds, bool(args.trace))
    except (Mismatch, lm.LocomapError) as exc:
        print(f"perfbench: {workload.name} seed {args.seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    info = machine()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} {json.dumps(info)}")
    print("untraced job walls (s): " + " ".join(f"{wall:.4f}" for wall, _ in bench.jobs))
    print("modeled (sim clock, not wall time): " + json.dumps(bench.modeled, sort_keys=True))
    if bench.job_refs:
        setup_scale, job_scale = bench.scales()
        print("unscaled set-ups (s): " + " ".join(f"{s:.4f}" for s in bench.setups))
        print("host-speed scales (hostspeed.py), set-ups: " + " ".join(f"{f:.4f}" for f in setup_scale))
        print("host-speed scales (hostspeed.py), jobs: " + " ".join(f"{f:.4f}" for f in job_scale))
    if args.trace:
        metrics, shares = bench.layer_metrics()
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
        print("self-time share of traced job: " + ", ".join(f"{m} {s:.3f}" for m, s in top))
        trace_file = WORK / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"machine": info, "metrics": metrics, "shares": shares, **bench.tracer.dump()}))
        print(f"spans and counts written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = bench.end_to_end()
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {UNITS[name]}")
    result = {
        "correct": True,
        "attempted": bench.slaves,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
