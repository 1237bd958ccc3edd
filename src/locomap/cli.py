"""Command line front end.

Subcommands:

  run      execute a job over a topology, in sim or tcp mode
  bench    duplication / migration cost sweeps, CSV out
  compare  run a job and put it next to the centralized baseline
  oracle   single-process reference result for the same data

Set LOCOMAP_LOG to control log verbosity (default WARNING).
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import signal
import sys
import threading
from itertools import chain
from pathlib import Path

from .cost import (
    BaselineParams,
    compare,
    duplication_experiment,
    migration_experiment,
    write_cost_csv,
)
from .errors import AllSlavesFailed, ConfigError, LocomapError
from .nodes import load_records_tsv
from .orchestration import Cluster, builtin_job, run_job, sequential_oracle
from .tcp_cluster import run_tcp_job
from .tcp_node import FrameServer
from .transport import SimTransport, TcpTransport, Topology, read_topology_file

logger = logging.getLogger("locomap.cli")

_SIZE_SUFFIX = {"k": 1024, "m": 1024 * 1024, "g": 1024 * 1024 * 1024}


def parse_sizes(text: str) -> list[int]:
    """'1k,10k,1m' -> [1024, 10240, 1048576]; suffixes are binary."""
    sizes = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        factor = 1
        if token[-1] in _SIZE_SUFFIX:
            factor = _SIZE_SUFFIX[token[-1]]
            token = token[:-1]
        try:
            sizes.append(int(token) * factor)
        except ValueError:
            raise ConfigError(f"cannot parse size {token!r}") from None
    if not sizes:
        raise ConfigError("no sizes given")
    return sizes


def _write_output(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_topology(args) -> tuple[Topology, bool]:
    """The topology file's Topology, and whether the file gives a seed."""
    if not args.topology:
        raise ConfigError("--topology is required")
    path = Path(args.topology)
    if not path.exists():
        raise ConfigError(f"topology file {path} does not exist")
    doc = read_topology_file(path)
    return Topology.from_dict(doc), "rng_seed" in doc


def _resolve_seed(args, seeded: bool, topology: Topology) -> int:
    if args.seed is not None:
        topology.rng_seed = args.seed
        return args.seed
    if seeded:
        return topology.rng_seed
    raise ConfigError("sim mode needs a seed: pass --seed or put rng_seed in the topology file")


def _data_files(topology: Topology, data_dir: str | None) -> dict[int, Path]:
    """The data file of each sensor node that has one, by node id. Any
    other ``node_*.tsv`` is a ConfigError, so no mode ignores a file that
    the oracle folds."""
    if data_dir is None:
        return {}
    root = Path(data_dir)
    if not root.is_dir():
        raise ConfigError(f"data directory {root} does not exist")
    names = {f"node_{n}.tsv": n for n in topology.nodes}
    files = {}
    for path in sorted(root.glob("node_*.tsv")):
        if path.name not in names:
            raise ConfigError(f"data file {path} belongs to no sensor node of the topology")
        files[names[path.name]] = path
    return files


def _timeout_s(args, default: float) -> float:
    """--timeout, checked before any socket or node exists to fail on it."""
    if args.timeout is None:
        return default
    if not 0 < args.timeout <= threading.TIMEOUT_MAX:  # the most a socket or lock wait takes
        raise ConfigError(f"--timeout must be positive and at most {threading.TIMEOUT_MAX:.0f} s, got {args.timeout}")
    return args.timeout


def _import_job_module(name: str) -> None:
    """Import --job-module, if given, before the job is built; in TCP mode
    the forked nodes inherit what it registers."""
    if not name:
        return
    try:
        importlib.import_module(name)
    except ImportError as exc:
        raise ConfigError(f"cannot import --job-module {name}: {exc}") from None


# Run options that only one mode reads; giving one in the other mode is an error.
_MODE_ONLY = {"seed": "sim", "base_port": "tcp", "timeout": "tcp", "node_logs": "tcp"}


def _execute(args) -> tuple[dict, object, int]:
    """Shared by run and compare: run the job per the config, build the
    output document, map total failure to exit code 2."""
    _import_job_module(args.job_module)
    for name, mode in _MODE_ONLY.items():
        if args.mode != mode and getattr(args, name) is not None:
            raise ConfigError(f"--{name.replace('_', '-')} applies to {mode} mode only")
    topology, seeded = _load_topology(args)
    files = _data_files(topology, args.data_dir)
    spec = builtin_job(args.job, job_id=args.job_id, slave_count=args.slave_count)
    code = 0
    try:
        if args.mode == "sim":
            seed = _resolve_seed(args, seeded, topology)
            cluster = Cluster.from_topology(topology, mem_bytes_limit=args.mem_limit)
            for node_id, path in files.items():
                cluster.nodes[node_id].ingest(load_records_tsv(path))
            result = run_job(spec, cluster, SimTransport(topology), results_only=args.results_only)
        else:
            seed = None
            result = run_tcp_job(
                spec,
                topology,
                args.data_dir,
                results_only=args.results_only,
                base_port=args.base_port or 0,
                timeout_s=_timeout_s(args, 60.0),
                node_mem_limit=args.mem_limit,
                log_dir=args.node_logs,
            )
    except AllSlavesFailed as exc:
        if exc.result is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        result = exc.result
        code = 2
    doc = {"job": args.job, "job_id": args.job_id, "mode": args.mode, "seed": seed, "results_only": args.results_only}
    doc.update(result.to_json_dict())
    return doc, result, code


def _cmd_run(args) -> int:
    doc, _, code = _execute(args)
    _write_output(doc, args.output)
    return code


def _cmd_compare(args) -> int:
    try:
        data_bytes = None if args.data_bytes == "auto" else int(args.data_bytes)
    except ValueError:
        raise ConfigError(f"--data-bytes must be a byte count or 'auto', got {args.data_bytes!r}") from None
    doc, result, code = _execute(args)
    if code:
        return code
    params = BaselineParams(
        data_bytes=result.raw_data_bytes if data_bytes is None else data_bytes,
        bandwidth_bytes_per_s=args.bandwidth_bytes_per_s,
        replication=args.replication,
        compute_bytes_per_s=args.compute_bytes_per_s,
    )
    report = compare(result, params)
    rows = list(report.to_json_dict().items())
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        if isinstance(value, float):
            print(f"{key:<{width}}  {value:.6f}")
        else:
            print(f"{key:<{width}}  {value}")
    if args.output:
        _write_output({**doc, "comparison": report.to_json_dict()}, args.output)
    return 0


def _cmd_oracle(args) -> int:
    _import_job_module(args.job_module)
    root = Path(args.data_dir)
    if not root.is_dir():
        raise ConfigError(f"data directory {root} does not exist")
    spec = builtin_job(args.job)
    records = chain.from_iterable(map(load_records_tsv, sorted(root.glob("node_*.tsv"))))
    final = sequential_oracle(spec.task, spec.combine, records)
    _write_output({"job": args.job, "final": final}, args.output)
    return 0


# Bench options that only one migration mode reads; giving one elsewhere is an error.
_BENCH_ONLY = {"topology": "sim", "seed": "sim", "timeout": "tcp"}


def _cmd_bench(args) -> int:
    for name, mode in _BENCH_ONLY.items():
        if getattr(args, name) is not None and (args.kind, args.mode) != ("migration", mode):
            raise ConfigError(f"--{name} applies to bench migration --mode {mode} only")
    sizes = parse_sizes(args.sizes)
    if args.kind == "duplication":
        mode = "sim" if args.mode == "sim" else "measured"
        records = duplication_experiment(sizes, repeats=args.repeats, mode=mode)
    else:
        if args.mode == "sim":
            if args.topology:
                topology = Topology.from_file(args.topology)
            else:
                topology = Topology.from_preset("iot", master=0, nodes=[1], rng_seed=args.seed or 0)
            if args.seed is not None:
                topology.rng_seed = args.seed
            transport = SimTransport(topology)
            src, dst = sorted((topology.master,) + topology.nodes)[:2]
            records = migration_experiment(sizes, args.repeats, transport, src=src, dst=dst)
        else:
            timeout_s = _timeout_s(args, 5.0)
            sink = FrameServer("127.0.0.1", 0, lambda frame: None)
            sink.start()
            try:
                transport = TcpTransport({1: (sink.host, sink.port)}, timeout_s=timeout_s)
                records = migration_experiment(sizes, args.repeats, transport, src=0, dst=1)
            finally:
                sink.stop()
    if not records:
        print("error: every benchmark sample failed", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", newline="") as fp:
            write_cost_csv(records, fp)
    else:
        write_cost_csv(records, sys.stdout)
    return 0


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=("sim", "tcp"), default="sim")
    sub.add_argument("--topology", help="topology JSON file")
    sub.add_argument("--data-dir", help="directory of node_<id>.tsv ingestion files")
    sub.add_argument("--job", default="wordcount", help="wordcount, sum, or a name a --job-module registers")
    sub.add_argument("--job-id", type=int, default=1)
    sub.add_argument("--slave-count", type=int, default=None)
    sub.add_argument("--results-only", action="store_true", help="skip the final migration; ship only the result message")
    # Mode-specific options default to None so a stray one can be rejected.
    sub.add_argument("--seed", type=int, default=None, help="sim mode: rng seed; overrides the topology file")
    sub.add_argument("--mem-limit", type=int, default=1 << 30, help="per-node heap limit in bytes")
    sub.add_argument("--base-port", type=int, default=None, help="tcp mode: master port; 0 (the default) picks ephemeral ports")
    sub.add_argument("--timeout", type=float, default=None, help="tcp mode: overall job deadline in seconds (default 60)")
    sub.add_argument("--job-module", default="", help="module imported before the run to register custom functions")
    sub.add_argument("--node-logs", default=None, help="tcp mode: directory for per-node stderr logs")
    sub.add_argument("--output", help="write the JSON document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="locomap", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="execute a job")
    _add_run_options(run)
    run.set_defaults(fn=_cmd_run)

    bench = subs.add_parser("bench", help="cost experiments")
    bench.add_argument("kind", choices=("duplication", "migration"))
    bench.add_argument("--sizes", default="1k,10k,100k,1m", help="comma separated agent sizes; binary k/m/g suffixes")
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument("--mode", choices=("sim", "tcp"), default="sim", help="sim models times; tcp measures them")
    bench.add_argument("--topology", help="sim migration: topology JSON (default: 2-node iot preset)")
    bench.add_argument("--seed", type=int, default=None, help="sim migration: rng seed")
    bench.add_argument("--timeout", type=float, default=None, help="tcp migration: per-send timeout in seconds (default 5)")
    bench.add_argument("--output", help="CSV file (default stdout)")
    bench.set_defaults(fn=_cmd_bench)

    cmp_ = subs.add_parser("compare", help="run a job and compare against the centralized baseline")
    _add_run_options(cmp_)
    cmp_.add_argument("--data-bytes", default=str(BaselineParams.data_bytes), help="baseline raw data bytes, or 'auto' for the run's ingested bytes")
    cmp_.add_argument("--bandwidth-bytes-per-s", type=float, default=BaselineParams.bandwidth_bytes_per_s)
    cmp_.add_argument("--replication", type=int, default=BaselineParams.replication)
    cmp_.add_argument("--compute-bytes-per-s", type=float, default=BaselineParams.compute_bytes_per_s)
    cmp_.set_defaults(fn=_cmd_compare)

    oracle = subs.add_parser("oracle", help="single-process reference result")
    oracle.add_argument("--data-dir", required=True)
    oracle.add_argument("--job", default="wordcount")
    oracle.add_argument("--job-module", default="")
    oracle.add_argument("--output")
    oracle.set_defaults(fn=_cmd_oracle)

    return parser


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("LOCOMAP_LOG", "WARNING").upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM unwinds the command as an exception does, so a TCP run shuts
    # down and reaps its nodes. Only the main thread can set a handler.
    in_main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _exit_on_signal) if in_main_thread else None
    try:
        return args.fn(args)
    except (LocomapError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if in_main_thread:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
