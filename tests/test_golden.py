"""Sim outputs stay byte-identical to checked-in reference documents.

Each file under ``golden/`` is the exact ``locomap run`` output for one
case, named ``<topology>_seed<seed>_<flags>.json``. To regenerate one
after an intended output change, run, from the repository root:

    locomap run --topology configs/iot3.json --data-dir configs/sample_data \
        --seed 0 --results-only --output tests/golden/iot3_seed0_results-only.json

``bench_<kind>_sim.csv`` is the ``locomap bench <kind> --mode sim`` CSV of
the default sizes at ``--repeats 3`` (migration at ``--seed 11``), e.g.:

    locomap bench migration --sizes 1k,10k,100k,1m --repeats 3 --seed 11 \
        --output tests/golden/bench_migration_sim.csv
"""

import json
from pathlib import Path

import pytest

from locomap.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FLAGS = {
    "none": [],
    "results-only": ["--results-only"],
    "mem-limit-300": ["--mem-limit", "300"],
    "mem-limit-20": ["--mem-limit", "20"],
}
CASES = [(topo, seed, flags) for topo in ("iot3", "iot8") for seed in (0, 1) for flags in FLAGS]
# iot8 with every link dropping half its sends: seed 0 retries and recovers,
# seed 1 gives up on two dispatches and on one slave's way home.
CASES += [("iot8_lossy", seed, flags) for seed in (0, 1) for flags in ("none", "results-only")]


def run_case(tmp_path, topo, seed, flags) -> Path:
    """Run one golden case; the path of its output document."""
    out = tmp_path / "out.json"
    argv = ["run", "--topology", ROOT / "configs" / f"{topo}.json", "--data-dir", ROOT / "configs" / "sample_data"]
    argv += ["--seed", seed, *FLAGS[flags], "--output", out]
    assert main([str(a) for a in argv]) == 0
    return out


@pytest.mark.parametrize("topo,seed,flags", CASES, ids=[f"{t}_seed{s}_{f}" for t, s, f in CASES])
def test_sim_output_matches_golden(tmp_path, topo, seed, flags):
    out = run_case(tmp_path, topo, seed, flags)
    assert out.read_bytes() == (GOLDEN / f"{topo}_seed{seed}_{flags}.json").read_bytes()


@pytest.mark.parametrize("topo,seed,flags", CASES, ids=[f"{t}_seed{s}_{f}" for t, s, f in CASES])
def test_counted_bytes_are_the_bytes_links_delivered(tmp_path, delivered_sim_sends, topo, seed, flags):
    # Every envelope and result message a link delivered, and nothing else:
    # no dropped send, and no partial handed over in place at the master.
    doc = json.loads(run_case(tmp_path, topo, seed, flags).read_text())
    assert doc["bytes_transferred_total"] == sum(delivered_sim_sends)


BENCH = {"duplication": [], "migration": ["--seed", "11"]}


@pytest.mark.parametrize("kind", BENCH)
def test_bench_csv_matches_golden(tmp_path, kind):
    out = tmp_path / "out.csv"
    assert main(["bench", kind, "--sizes", "1k,10k,100k,1m", "--repeats", "3", *BENCH[kind], "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"bench_{kind}_sim.csv").read_bytes()
