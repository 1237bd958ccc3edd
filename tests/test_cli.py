import json

import pytest

import locomap.cli as cli
from locomap.cli import main, parse_sizes

from helpers import wordcount_reference


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

    def test_missing_data_dir_is_exit_1(self, workspace):
        assert run_cli("run", "--topology", workspace / "topo.json", "--data-dir", workspace / "absent", "--seed", "1") == 1

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
            "--timeout", "30", "--output", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["final"] == {"a": 2, "b": 1}
        assert doc["mode"] == "tcp"
        assert doc["partials_received"] == 2

    def test_tcp_mode_rejects_process_master_heap(self, workspace, capsys):
        code = run_cli(
            "run", "--mode", "tcp", "--topology", workspace / "topo.json",
            "--data-dir", workspace / "data", "--process-master-heap",
        )
        assert code == 1
        assert "--process-master-heap" in capsys.readouterr().err

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

    def test_report_written_to_file(self, workspace, tmp_path):
        out = tmp_path / "cmp.json"
        run_cli("compare", "--topology", workspace / "topo.json", "--data-dir", workspace / "data", "--seed", "2", "--output", out)
        doc = json.loads(out.read_text())
        assert "comparison" in doc
        assert doc["comparison"]["framework_bytes_transferred"] == doc["bytes_transferred_total"]
