import contextlib
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import locomap.cli as cli
from locomap import BUILTIN_JOBS, tcp_cluster
from locomap.cli import main, parse_sizes

from helpers import process_running, wordcount_reference


@pytest.fixture
def workspace(tmp_path):
    topo = tmp_path / "topo.json"
    topo.write_text(
        json.dumps(
            {
                "master": 0,
                "nodes": [1, 2],
                "rng_seed": 7,
                "default_link": {"bandwidth_bytes_per_s": 1000000.0, "latency_s": 0.002},
            }
        )
    )
    data = tmp_path / "data"
    data.mkdir()
    (data / "node_1.tsv").write_bytes(b"r1\ta b\n")
    (data / "node_2.tsv").write_bytes(b"r2\ta\n")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestParseSizes:
    def test_suffixes_are_binary(self):
        assert parse_sizes("1k,10k,1m") == [1024, 10240, 1048576]

    def test_plain_integers(self):
        assert parse_sizes("7,42") == [7, 42]

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            parse_sizes("1q")


class TestRun:
    def test_repeat_runs_are_byte_identical(self, workspace):
        outs = []
        for name in ("a.json", "b.json"):
            out = workspace / name
            code = run_cli(
                "run", "--mode", "sim", "--topology", workspace / "topo.json",
                "--data-dir", workspace / "data", "--job", "wordcount", "--seed", "7",
                "--output", out,
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_final_matches_the_hand_reference(self, workspace):
        out = workspace / "run.json"
        assert run_cli("run", "--topology", workspace / "topo.json", "--data-dir", workspace / "data", "--seed", "1", "--output", out) == 0
        doc = json.loads(out.read_text())
        assert doc["final"] == wordcount_reference([b"a b", b"a"]) == {"a": 2, "b": 1}
        assert doc["partials_received"] == 2
        assert doc["mode"] == "sim"

    def test_missing_topology_is_exit_1(self, workspace, capsys):
        assert run_cli("run", "--topology", workspace / "nothere.json", "--seed", "1") == 1
        assert "error:" in capsys.readouterr().err

    def test_no_topology_flag_is_exit_1(self, workspace):
        assert run_cli("run", "--seed", "1") == 1

    def test_sim_needs_a_seed_somewhere(self, workspace, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"master": 0, "nodes": [1]}))
        assert run_cli("run", "--topology", bare) == 1
        assert run_cli("run", "--topology", bare, "--seed", "3") == 0

    @pytest.mark.parametrize("mode, option", [("sim", "--seed"), ("tcp", "--timeout")])
    def test_missing_data_dir_is_exit_1(self, workspace, capsys, mode, option):
        code = run_cli("run", "--mode", mode, "--topology", workspace / "topo.json", "--data-dir", workspace / "absent", option, "1")
        assert code == 1
        assert "absent" in capsys.readouterr().err

    def test_output_to_stdout(self, workspace, capsys):
        assert run_cli("run", "--topology", workspace / "topo.json", "--data-dir", workspace / "data", "--seed", "1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["final"] == {"a": 2, "b": 1}

    def test_output_document_has_exactly_the_documented_keys(self, workspace):
        out = workspace / "schema.json"
        run_cli("run", "--topology", workspace / "topo.json", "--data-dir", workspace / "data", "--seed", "1", "--output", out)
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "job", "job_id", "mode", "seed", "results_only",
            "final", "partials_received", "slaves_failed", "slave_count",
            "bytes_transferred_total", "raw_data_bytes", "wall_time_s",
            "migrations_total", "slaves",
        }
        assert set(doc["slaves"][0]) == {"agent_id", "nodes", "delivered", "migrations", "bytes_sent", "fail_reason"}

    def test_tcp_mode_through_the_cli(self, workspace):
        out = workspace / "tcp.json"
        code = run_cli(
            "run", "--mode", "tcp", "--topology", workspace / "topo.json",
            "--data-dir", workspace / "data", "--job", "wordcount",
            "--timeout", "30", "--output", out, "--node-logs", workspace / "logs",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["final"] == {"a": 2, "b": 1}
        assert doc["mode"] == "tcp"
        assert doc["partials_received"] == 2
        # One log per node, and no launcher's.
        assert sorted(p.name for p in (workspace / "logs").iterdir()) == ["node_1.log", "node_2.log"]

    @pytest.mark.parametrize("mode, option", [("sim", "--seed"), ("tcp", "--timeout")])
    @pytest.mark.parametrize("name", ["node_0.tsv", "node_9.tsv"])
    def test_data_file_of_no_sensor_node_is_rejected(self, workspace, capsys, mode, option, name):
        # node_0.tsv is the master's, node_9.tsv a node the topology lacks:
        # run would read neither, and the oracle would fold both.
        (workspace / "data" / name).write_bytes(b"m\tzeta\n")
        code = run_cli("run", "--mode", mode, "--topology", workspace / "topo.json", "--data-dir", workspace / "data", option, "1")
        assert code == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, flag, value",
        [("tcp", "--seed", "7"), ("sim", "--base-port", "0"), ("sim", "--timeout", "30"), ("sim", "--node-logs", "logs")],
    )
    def test_option_of_the_other_mode_is_rejected(self, workspace, capsys, mode, flag, value):
        code = run_cli(
            "run", "--mode", mode, "--topology", workspace / "topo.json",
            "--data-dir", workspace / "data", flag, value,
        )
        assert code == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("mode, option, value", [("sim", "--seed", "7"), ("tcp", "--timeout", "30")])
    def test_records_dropped_over_the_memory_limit_are_warned_per_node(self, tmp_path, caplog, mode, option, value):
        # 20 bytes hold one record each of node 1's and node 3's two, and all of node 2's.
        caplog.set_level(logging.WARNING)
        argv = ["run", "--mode", mode, "--topology", CONFIGS / "iot3.json", "--data-dir", CONFIGS / "sample_data", option, value]
        for limit, expected in (
            ([], []),
            (["--mem-limit", "20"], [f"node {n} dropped 1 records over its memory limit" for n in (1, 3)]),
        ):
            caplog.clear()
            assert run_cli(*argv, *limit, "--output", tmp_path / "out.json") == 0
            assert [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()] == expected

    def test_unknown_job_is_exit_1_and_named(self, workspace, capsys):
        assert run_cli("run", "--topology", workspace / "topo.json", "--seed", "1", "--job", "nosuch") == 1
        assert "nosuch" in capsys.readouterr().err
        assert run_cli("oracle", "--data-dir", workspace / "data", "--job", "nosuch") == 1
        assert "nosuch" in capsys.readouterr().err

    def test_all_slaves_failed_is_exit_2(self, workspace, tmp_path, capsys):
        doomed = tmp_path / "doomed.json"
        doomed.write_text(
            json.dumps({"master": 0, "nodes": [1], "rng_seed": 1, "default_link": {"bandwidth_bytes_per_s": 1000.0, "failure_prob": 1.0}})
        )
        out = tmp_path / "doomed_result.json"
        assert run_cli("run", "--topology", doomed, "--output", out) == 2
        doc = json.loads(out.read_text())
        assert doc["slaves_failed"] == doc["slave_count"] == 1


class TestOracle:
    def test_hand_case(self, workspace, capsys):
        assert run_cli("oracle", "--data-dir", workspace / "data", "--job", "wordcount") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"final": {"a": 2, "b": 1}, "job": "wordcount"}

    def test_empty_data_dir_gives_identity(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("oracle", "--data-dir", empty) == 0
        assert json.loads(capsys.readouterr().out)["final"] == {}

    def test_missing_dir_is_exit_1(self, tmp_path):
        assert run_cli("oracle", "--data-dir", tmp_path / "none") == 1

    def test_oracle_agrees_with_run(self, workspace, capsys):
        out = workspace / "r.json"
        run_cli("run", "--topology", workspace / "topo.json", "--data-dir", workspace / "data", "--seed", "5", "--output", out)
        run_doc = json.loads(out.read_text())
        assert run_cli("oracle", "--data-dir", workspace / "data") == 0
        oracle_doc = json.loads(capsys.readouterr().out)
        assert run_doc["final"] == oracle_doc["final"]


class TestBench:
    def test_migration_csv_rows_and_monotone_totals(self, tmp_path):
        out = tmp_path / "mig.csv"
        assert run_cli("bench", "migration", "--sizes", "1k,10k,100k", "--mode", "sim", "--output", out) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        totals = [float(line.split(",")[-1]) for line in lines[1:]]
        assert totals == sorted(totals) and len(set(totals)) == 3

    def test_duplication_single_row(self, tmp_path):
        out = tmp_path / "dup.csv"
        assert run_cli("bench", "duplication", "--sizes", "1k", "--repeats", "5", "--output", out) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("duplication,1024,")

    def test_bench_is_deterministic_in_sim_mode(self, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            run_cli("bench", "migration", "--sizes", "1k,1m", "--mode", "sim", "--seed", "3", "--output", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_all_samples_failing_is_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "migration_experiment", lambda *a, **k: [])
        assert run_cli("bench", "migration", "--sizes", "1k", "--mode", "sim") == 2
        assert "failed" in capsys.readouterr().err

    def test_bad_sizes_is_exit_1(self, capsys):
        assert run_cli("bench", "migration", "--sizes", "1q") == 1

    def test_tcp_migration_over_the_loopback_sink(self, tmp_path):
        out = tmp_path / "tcp.csv"
        assert run_cli("bench", "migration", "--mode", "tcp", "--sizes", "1k,64k", "--repeats", "3", "--output", out) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert header[-1] == "total_s"
        assert [row[:2] for row in rows] == [["migration", "1024"], ["migration", "65536"]]
        for row in rows:
            prepare, connect, transfer, unpack, verify, total = map(float, row[2:])
            assert prepare + connect + transfer + unpack + verify == total > 0

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("duplication", "--topology", "/nonexistent.json", "--seed", "3", "--timeout", "9"), "--topology"),
            (("duplication", "--timeout", "9"), "--timeout"),
            (("migration", "--mode", "tcp", "--topology", "/nonexistent.json"), "--topology"),
            (("migration", "--mode", "tcp", "--seed", "3"), "--seed"),
            (("migration", "--mode", "sim", "--timeout", "0.001"), "--timeout"),
        ],
    )
    def test_option_that_does_not_apply_is_rejected(self, capsys, args, flag):
        assert run_cli("bench", *args, "--sizes", "1k", "--repeats", "1") == 1
        assert flag in capsys.readouterr().err


BAD_INPUT = {
    "bench-duplication-negative-size": (["bench", "duplication", "--sizes=1k,-1k"], "-1024"),
    "bench-migration-negative-size": (["bench", "migration", "--sizes=-1k"], "-1024"),
    "bench-tcp-timeout-negative": (["bench", "migration", "--mode", "tcp", "--timeout=-1"], "--timeout"),
    "bench-tcp-timeout-zero": (["bench", "migration", "--mode", "tcp", "--timeout", "0"], "--timeout"),
    "run-tcp-timeout-zero": (["run", "--mode", "tcp", "--timeout", "0"], "--timeout"),
    "run-tcp-timeout-negative": (["run", "--mode", "tcp", "--timeout=-1"], "--timeout"),
    "run-tcp-timeout-inf": (["run", "--mode", "tcp", "--timeout", "inf"], "--timeout"),
    "bench-tcp-timeout-too-large": (["bench", "migration", "--mode", "tcp", "--timeout", "1e10"], "--timeout"),
    "compare-tcp-timeout-zero": (["compare", "--mode", "tcp", "--timeout", "0"], "--timeout"),
    "compare-data-bytes-not-a-number": (["compare", "--seed", "1", "--data-bytes", "abc"], "--data-bytes"),
}


@pytest.mark.parametrize("argv, named", BAD_INPUT.values(), ids=BAD_INPUT)
def test_bad_input_is_exit_1_and_named(workspace, capsys, monkeypatch, argv, named):
    # A bad flag is caught before any node is forked or job is run.
    monkeypatch.setattr(cli, "run_tcp_job", lambda *a, **k: pytest.fail("nodes forked"))
    if argv[0] != "bench":
        argv = argv + ["--topology", workspace / "topo.json", "--data-dir", workspace / "data"]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "base_port, named",
    [("70000", "the master cannot listen on 127.0.0.1:70000"), ("65535", "node 1 cannot listen on 127.0.0.1:65536")],
    ids=["master-over-65535", "node-1-over-65535"],
)
def test_a_master_port_out_of_range_is_exit_1(workspace, capsys, monkeypatch, base_port, named):
    # The master binds every listener before it forks: one it cannot bind,
    # its own or node 1's at base+1, is one error line, and no node is forked.
    monkeypatch.setattr(tcp_cluster.os, "fork", lambda: pytest.fail("nodes forked"))
    argv = ["run", "--mode", "tcp", "--base-port", base_port, "--topology", workspace / "topo.json", "--data-dir", workspace / "data"]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_lossy_topology_is_exit_1_in_tcp_mode(capsys, monkeypatch):
    # TCP mode drops no sends, so it names the first lossy link and forks nothing.
    monkeypatch.setattr(tcp_cluster.os, "fork", lambda: pytest.fail("nodes forked"))
    argv = ["run", "--mode", "tcp", "--topology", CONFIGS / "iot8_lossy.json", "--data-dir", CONFIGS / "sample_data"]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TCP mode cannot drop sends, but link 0 -> 1 has failure_prob 0.5")
    assert "Traceback" not in err


def test_a_job_id_outside_u64_is_exit_1_before_any_fork(capsys, monkeypatch):
    # The spec rejects it when it is built, before any node could register it.
    monkeypatch.setattr(tcp_cluster.os, "fork", lambda: pytest.fail("nodes forked"))
    argv = ["run", "--mode", "tcp", "--job-id", "-1", "--topology", CONFIGS / "iot3.json", "--data-dir", CONFIGS / "sample_data"]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err == "error: job_id must fit in u64 (0 to 2**64-1), got -1\n"


def test_sigterm_to_a_tcp_master_shuts_every_node_down(tmp_path):
    # Each node's map writes the node's pid to a file, then sleeps: the
    # master gets SIGTERM while every node hosts a slave.
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    (tmp_path / "locomap_sleepy_job.py").write_text(
        "import os, time\n"
        "import locomap as lm\n"
        "\n"
        "def sleepy(key, value):\n"
        f"    open(os.path.join({str(pid_dir)!r}, str(os.getpid())), 'w').close()\n"
        "    time.sleep(30)\n"
        "    yield from ()\n"
        "\n"
        "lm.DEFAULT_REGISTRY.register_map('sleepy-map', sleepy)\n"
        "lm.BUILTIN_JOBS['sleepy'] = ('sleepy-map', 'identity', 'sum-by-key')\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(tmp_path))))
    argv = ["run", "--mode", "tcp", "--topology", CONFIGS / "iot3.json", "--data-dir", CONFIGS / "sample_data"]
    argv += ["--job", "sleepy", "--job-module", "locomap_sleepy_job", "--timeout", "60"]
    master = subprocess.Popen([sys.executable, "-m", "locomap", *map(str, argv)], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 30
        while len(pids) < 3:
            assert master.poll() is None and time.monotonic() < deadline, "the nodes never all hosted"
            time.sleep(0.02)
            pids = [int(path.name) for path in pid_dir.iterdir()]
        master.send_signal(signal.SIGTERM)
        _, err = master.communicate(timeout=10)
        assert master.returncode == 128 + signal.SIGTERM, err
        gone_by = time.monotonic() + 2.0
        while any(map(process_running, pids)) and time.monotonic() < gone_by:
            time.sleep(0.02)
        assert [pid for pid in pids if process_running(pid)] == []
    finally:
        if master.poll() is None:
            master.kill()
            master.communicate()
        for pid in filter(process_running, pids):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


BAD_TOPOLOGY_VALUES = {
    "rng-seed-not-an-int": ("rng_seed", "abc"),
    "rng-seed-a-float": ("rng_seed", 1.7),
    "preset-a-list": ("preset", ["iot"]),
    "default-link-not-an-object": ("default_link", 5),
    "default-link-latency-not-a-number": ("default_link", {"latency_s": "slow"}),
    "default-link-bandwidth-nan": ("default_link", {"bandwidth_bytes_per_s": float("nan")}),
    "links-not-a-list": ("links", 5),
    "link-latency-nan": ("links", [{"from": 0, "to": 1, "latency_s": float("nan")}]),
    "link-key-misspelled": ("links", [{"from": 0, "to": 1, "failure_porb": 0.5}]),
    "default-link-key-misspelled": ("default_links", {"failure_prob": 0.5}),
    "master-infinity": ("master", float("inf")),
    "node-a-bool": ("nodes", [True]),
    "nodes-a-string": ("nodes", "12"),
    "nodes-list-the-master": ("nodes", [0, 1, 2]),
    "nodes-list-an-id-twice": ("nodes", [1, 1, 2]),
    "node-id-over-u32": ("nodes", [1, 2, 2**40]),
}


@pytest.mark.parametrize("key, value", BAD_TOPOLOGY_VALUES.values(), ids=BAD_TOPOLOGY_VALUES)
def test_a_topology_value_of_the_wrong_type_is_exit_1_in_one_line(workspace, capsys, key, value):
    topo = workspace / "bad_topo.json"
    topo.write_text(json.dumps({"master": 0, "nodes": [1, 2], key: value}))
    assert run_cli("run", "--topology", topo, "--data-dir", workspace / "data") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and key in err
    assert "Traceback" not in err


JOB_MODULE_COMMANDS = {
    "run-sim": ["run", "--mode", "sim", "--seed", "7", "--topology", CONFIGS / "iot3.json"],
    "run-tcp": ["run", "--mode", "tcp", "--timeout", "30", "--topology", CONFIGS / "iot3.json"],
    "oracle": ["oracle"],
}


@pytest.mark.parametrize("argv", JOB_MODULE_COMMANDS.values(), ids=JOB_MODULE_COMMANDS)
def test_a_job_module_that_cannot_be_imported_is_exit_1_in_one_line(capsys, monkeypatch, argv):
    # The CLI imports the module before the job is built, so no node is forked.
    monkeypatch.setattr(tcp_cluster.os, "fork", lambda: pytest.fail("nodes forked"))
    assert run_cli(*argv, "--data-dir", CONFIGS / "sample_data", "--job-module", "locomap_no_such_job") == 1
    err = capsys.readouterr().err
    assert err == "error: cannot import --job-module locomap_no_such_job: No module named 'locomap_no_such_job'\n"


def test_a_job_module_on_sys_path_runs_in_every_mode(tmp_path, monkeypatch, process_registry, request):
    # The module registers a map and a job name. The CLI imports it, and in
    # TCP mode the nodes the master forks hold what it registered. Both go
    # when the test ends.
    request.addfinalizer(lambda: BUILTIN_JOBS.pop("upper-wordcount", None))
    (tmp_path / "locomap_upper_job.py").write_text(
        "import locomap as lm\n"
        "\n"
        "def upper_words(key, value):\n"
        "    for word in value.split():\n"
        "        yield word.decode().upper(), 1\n"
        "\n"
        "lm.DEFAULT_REGISTRY.register_map('upper-wordcount-map', upper_words)\n"
        "lm.BUILTIN_JOBS['upper-wordcount'] = ('upper-wordcount-map', 'identity', 'sum-by-key')\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    docs = {}
    for name, argv in JOB_MODULE_COMMANDS.items():
        out = tmp_path / f"{name}.json"
        job = ["--job", "upper-wordcount", "--job-module", "locomap_upper_job"]
        assert run_cli(*argv, "--data-dir", CONFIGS / "sample_data", *job, "--output", out) == 0
        docs[name] = json.loads(out.read_text())
    final = docs["oracle"]["final"]
    assert final and all(word.isupper() for word in final)
    for name in ("run-sim", "run-tcp"):
        assert docs[name]["final"] == final, name
        assert docs[name]["slaves_failed"] == 0, name


class TestCompare:
    def test_default_baseline_matches_reference_costs(self, workspace, capsys):
        code = run_cli("compare", "--topology", workspace / "topo.json", "--data-dir", workspace / "data", "--seed", "2")
        assert code == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("baseline_transfer_s"))
        assert abs(float(line.split()[-1]) - 105.882353) < 1e-3

    def test_replication_one_halves_the_transfer(self, workspace, capsys):
        run_cli("compare", "--topology", workspace / "topo.json", "--data-dir", workspace / "data", "--seed", "2", "--replication", "1")
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("baseline_transfer_s"))
        assert abs(float(line.split()[-1]) - 52.941176) < 1e-3

    def test_auto_data_bytes_uses_the_ingested_total(self, workspace, capsys):
        run_cli("compare", "--topology", workspace / "topo.json", "--data-dir", workspace / "data", "--seed", "2", "--data-bytes", "auto")
        out = capsys.readouterr().out
        data_line = next(l for l in out.splitlines() if l.startswith("data_bytes"))
        assert int(data_line.split()[-1]) == len(b"r1a b") + len(b"r2a")

    def test_non_aggregating_job_warns_once(self, caplog, capsys):
        caplog.set_level(logging.WARNING)
        argv = ["compare", "--topology", CONFIGS / "iot8.json", "--data-dir", CONFIGS / "sample_data", "--seed", "42"]
        assert run_cli(*argv, "--data-bytes", "auto") == 0
        logged = [r.getMessage() for r in caplog.records]
        printed = capsys.readouterr().err.splitlines()
        assert sum("reduction ratio" in line for line in logged + printed) == 1

    def test_report_written_to_file(self, workspace, tmp_path):
        out = tmp_path / "cmp.json"
        run_cli("compare", "--topology", workspace / "topo.json", "--data-dir", workspace / "data", "--seed", "2", "--output", out)
        doc = json.loads(out.read_text())
        assert "comparison" in doc
        assert doc["comparison"]["framework_bytes_transferred"] == doc["bytes_transferred_total"]
