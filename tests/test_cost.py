import io
import logging

import pytest

import locomap as lm
from locomap import LifecycleCallbacks
from locomap.cost import CSV_COLUMNS, DUPLICATION, MIGRATION


SIZES = [1024, 10 * 1024, 100 * 1024, 1024 * 1024]


def two_node_transport(bandwidth=1_048_576, latency=0.01, failure=0.0):
    topo = lm.Topology.full_mesh(0, [1], bandwidth_bytes_per_s=bandwidth, latency_s=latency, failure_prob=failure, rng_seed=1)
    return lm.SimTransport(topo)


class TestHadoopBaseline:
    def test_default_parameters_reproduce_the_reference_costs(self):
        transfer, total = lm.hadoop_baseline(lm.BaselineParams())
        # independent arithmetic: 1.8e9 * 2 / 34e6 and + 1.8e9 / 34e6
        assert transfer == pytest.approx(1.8e9 * 2 / 34e6)
        assert total == pytest.approx(1.8e9 * 2 / 34e6 + 1.8e9 / 34e6)
        assert 104.9 <= transfer <= 106.9
        assert 157.2 <= total <= 160.4

    def test_zero_data(self):
        assert lm.hadoop_baseline(lm.BaselineParams(data_bytes=0)) == (0.0, 0.0)

    def test_hand_arithmetic_case(self):
        params = lm.BaselineParams(data_bytes=340_000_000, replication=1)
        transfer, total = lm.hadoop_baseline(params)
        assert transfer == 10.0
        assert total == 20.0

    def test_pure_function(self):
        params = lm.BaselineParams()
        assert lm.hadoop_baseline(params) == lm.hadoop_baseline(params)

    def test_validation(self):
        with pytest.raises(lm.ConfigError):
            lm.BaselineParams(bandwidth_bytes_per_s=0)
        with pytest.raises(lm.ConfigError):
            lm.BaselineParams(replication=0)
        with pytest.raises(lm.ConfigError):
            lm.BaselineParams(data_bytes=-1)


class TestDuplicationExperiment:
    def test_cost_grows_with_size(self):
        records = lm.duplication_experiment(SIZES, repeats=3)
        totals = [r.total_s for r in records]
        assert totals == sorted(totals)
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_zero_size_still_costs_something(self):
        (record,) = lm.duplication_experiment([0], repeats=1)
        assert record.total_s > 0
        assert record.phases.unpack_s > 0

    def test_single_repeat_is_a_single_measurement(self):
        a = lm.duplication_experiment([2048], repeats=1)
        b = lm.duplication_experiment([2048], repeats=7)
        assert a[0].total_s == b[0].total_s  # sim times are modeled, medians agree

    def test_two_callbacks_per_duplication_event(self):
        callbacks = LifecycleCallbacks()
        lm.duplication_experiment([1024], repeats=4, callbacks=callbacks)
        assert callbacks.total == 2 * 4
        assert callbacks.depart_count == callbacks.arrive_count == 4

    def test_measured_mode_is_positive(self):
        (record,) = lm.duplication_experiment([64 * 1024], repeats=3, mode="measured")
        assert record.total_s > 0

    def test_argument_validation(self):
        with pytest.raises(lm.ConfigError):
            lm.duplication_experiment([1], mode="warp")

    @pytest.mark.parametrize("kind", ["duplication", "migration"])
    @pytest.mark.parametrize(
        "sizes, repeats, named",
        [([], 1, "size"), ([1], 0, "repeats"), ([1024, -1], 1, "-1")],
        ids=["no-sizes", "no-repeats", "negative-size"],
    )
    def test_sweep_validation(self, kind, sizes, repeats, named):
        with pytest.raises(lm.ConfigError, match=named):
            if kind == "duplication":
                lm.duplication_experiment(sizes, repeats=repeats)
            else:
                lm.migration_experiment(sizes, repeats, two_node_transport(), src=0, dst=1)


class TestMigrationExperiment:
    def test_phases_sum_to_total_exactly(self):
        records = lm.migration_experiment(SIZES, 3, two_node_transport(), src=0, dst=1)
        for r in records:
            p = r.phases
            assert r.total_s == p.prepare_s + p.connect_s + p.transfer_s + p.unpack_s + p.verify_s

    def test_transfer_phase_matches_the_link_model(self):
        records = lm.migration_experiment([1_048_576 - 32], 1, two_node_transport(), src=0, dst=1)
        assert records[0].phases.transfer_s == 1.0  # envelope is exactly 1 MiB

    def test_migration_always_costs_more_than_duplication(self):
        dup = lm.duplication_experiment(SIZES, repeats=3)
        mig = lm.migration_experiment(SIZES, 3, two_node_transport(), src=0, dst=1)
        for d, m in zip(dup, mig):
            assert m.total_s > d.total_s

    def test_monotone_in_size(self):
        mig = lm.migration_experiment(SIZES, 3, two_node_transport(), src=0, dst=1)
        totals = [r.total_s for r in mig]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_size_whose_samples_all_fail_has_no_record(self):
        records = lm.migration_experiment([1024], 3, two_node_transport(failure=1.0), src=0, dst=1)
        assert records == []

    def test_failed_samples_are_logged_and_left_out(self, caplog):
        caplog.set_level(logging.WARNING, logger="locomap.cost")
        callbacks = LifecycleCallbacks()
        (record,) = lm.migration_experiment([1_048_576 - 32], 8, two_node_transport(failure=0.5), src=0, dst=1, callbacks=callbacks)
        # Every sample departs; only a delivered one arrives.
        failed = callbacks.depart_count - callbacks.arrive_count
        assert 0 < failed < 8
        assert record.phases.transfer_s == 1.0  # the link model's, as with no failures
        assert sum("migration sample failed" in r.getMessage() for r in caplog.records) == failed

    def test_two_callbacks_per_migration(self):
        callbacks = LifecycleCallbacks()
        lm.migration_experiment([1024], 5, two_node_transport(), src=0, dst=1, callbacks=callbacks)
        assert callbacks.depart_count == callbacks.arrive_count == 5


class TestCostCsv:
    def test_columns_and_rows(self):
        records = lm.duplication_experiment([1024, 2048], repeats=2)
        buffer = io.StringIO()
        lm.write_cost_csv(records, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith(f"{DUPLICATION},1024,")

    def test_byte_identical_across_runs(self):
        def render():
            records = lm.duplication_experiment(SIZES, repeats=3) + lm.migration_experiment(
                SIZES, 3, two_node_transport(), src=0, dst=1
            )
            buffer = io.StringIO()
            lm.write_cost_csv(records, buffer)
            return buffer.getvalue()

        assert render() == render()

    def test_migration_rows_labelled(self):
        records = lm.migration_experiment([1024], 1, two_node_transport(), src=0, dst=1)
        assert records[0].csv_row()[0] == MIGRATION


class TestCompare:
    def mk_result(self, bytes_total, raw=0):
        return lm.JobResult(
            final={},
            partials_received=1,
            slaves_failed=0,
            slave_count=1,
            bytes_transferred_total=bytes_total,
            wall_time_s=1.0,
            raw_data_bytes=raw,
        )

    def test_reference_scenario_ratio(self):
        report = lm.compare(self.mk_result(16_400_000), lm.BaselineParams())
        assert report.reduction_ratio == pytest.approx(16.4e6 / 1.8e9)
        assert report.reduction_ratio == pytest.approx(0.0091, abs=2e-4)

    def test_non_aggregating_job_hits_ratio_one(self):
        report = lm.compare(self.mk_result(1_000), lm.BaselineParams(data_bytes=1_000))
        assert report.reduction_ratio == 1.0

    def test_empty_job_has_ratio_zero(self):
        report = lm.compare(self.mk_result(0), lm.BaselineParams())
        assert report.reduction_ratio == 0.0

    def test_report_carries_baseline_and_framework_sides(self):
        report = lm.compare(self.mk_result(123), lm.BaselineParams())
        doc = report.to_json_dict()
        assert doc["framework_bytes_transferred"] == 123
        assert doc["baseline_transfer_s"] == pytest.approx(105.88, abs=0.01)
        assert doc["data_bytes"] == 1_800_000_000
