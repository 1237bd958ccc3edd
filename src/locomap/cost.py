"""Cost experiments and the centralized-baseline comparison.

Two experiments sweep agent size: duplicating an agent on one node, and
migrating an agent between two nodes with its five-phase breakdown.
Duplication is cheap (a copy plus the two lifecycle hooks); migration
pays for packing, connecting, transferring, unpacking and verifying, so
its curve sits strictly above duplication at every size.

The baseline models the centralized alternative: copy every raw byte to a
cluster (times the replication factor), then process it there. With the
default parameters (1.8 GB of data, 34 MB/s transfer and processing,
2x replication) it lands at roughly 106 s to transfer and 159 s total.
Decimal units throughout: 1 MB = 10^6 bytes.
"""

from __future__ import annotations

import csv
import logging
import statistics
import time
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .agents import Agent, AgentIdAllocator, AgentRole, LifecycleCallbacks, duplicate
from .envelope import MigrationPhases, migrate
from .errors import ConfigError, TransportFailure, VerifyFailure
from .orchestration import JobResult
from .transport import SimCpuModel

logger = logging.getLogger("locomap.cost")

DUPLICATION = "duplication"
MIGRATION = "migration"

CSV_COLUMNS = ["kind", "size_bytes", "prepare_s", "connect_s", "transfer_s", "unpack_s", "verify_s", "total_s"]


@dataclass(frozen=True)
class CostRecord:
    """One row of an experiment: a size, a phase breakdown, a total.

    Duplication uses only the prepare/unpack slots, reinterpreted as the
    copy and callback analogues; the other phases are zero.
    """

    kind: str
    agent_size_bytes: int
    phases: MigrationPhases
    samples: int = 1
    samples_failed: int = 0

    @property
    def total_s(self) -> float:
        return self.phases.total_s

    @property
    def copy_s(self) -> float:
        return self.phases.prepare_s

    @property
    def callback_s(self) -> float:
        return self.phases.unpack_s

    def csv_row(self) -> list:
        p = self.phases
        return [self.kind, self.agent_size_bytes, p.prepare_s, p.connect_s, p.transfer_s, p.unpack_s, p.verify_s, self.total_s]


def write_cost_csv(records: Iterable[CostRecord], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.csv_row())


def _experiment_agent(size_bytes: int, ids: AgentIdAllocator) -> Agent:
    return Agent(id=ids.next(), role=AgentRole.MAPPER, job_id=0, payload=bytes(size_bytes))


def duplication_experiment(
    sizes: Sequence[int],
    repeats: int = 5,
    mode: str = "sim",
    callbacks: LifecycleCallbacks | None = None,
) -> list[CostRecord]:
    """Median duplication cost per agent size, callbacks included.

    ``sim`` reports modeled times (reproducible); ``measured`` times the
    real copy with a wall clock. The copies are made for real either way.
    """
    if not sizes:
        raise ConfigError("duplication experiment needs at least one size")
    if repeats < 1:
        raise ConfigError("repeats must be at least 1")
    if mode not in ("sim", "measured"):
        raise ConfigError(f"unknown duplication mode {mode!r}")
    model = SimCpuModel()
    callbacks = callbacks if callbacks is not None else LifecycleCallbacks()
    ids = AgentIdAllocator()
    records = []
    for size in sizes:
        copy_samples, callback_samples = [], []
        for _ in range(repeats):
            mapper = _experiment_agent(size, ids)
            t0 = time.perf_counter()
            callbacks.fire_depart(mapper)
            t1 = time.perf_counter()
            (clone,) = duplicate(mapper, 1, ids)
            copied = bytearray(clone.payload)  # bytes() of a bytes object would not copy
            t2 = time.perf_counter()
            callbacks.fire_arrive(clone)
            t3 = time.perf_counter()
            assert len(copied) == size
            if mode == "sim":
                copy_s, callback_s = model.duplication_times(size)
            else:
                copy_s = t2 - t1
                callback_s = (t1 - t0) + (t3 - t2)
            copy_samples.append(copy_s)
            callback_samples.append(callback_s)
        phases = MigrationPhases(
            prepare_s=statistics.median(copy_samples),
            connect_s=0.0,
            transfer_s=0.0,
            unpack_s=statistics.median(callback_samples),
            verify_s=0.0,
        )
        records.append(CostRecord(kind=DUPLICATION, agent_size_bytes=size, phases=phases, samples=repeats))
    return records


def migration_experiment(
    sizes: Sequence[int],
    repeats: int,
    transport,
    src: int,
    dst: int,
    callbacks: LifecycleCallbacks | None = None,
) -> list[CostRecord]:
    """Median five-phase migration cost between two nodes, per agent size.

    Failed samples are excluded from the medians and counted; a size where
    every sample failed produces no record.
    """
    if not sizes:
        raise ConfigError("migration experiment needs at least one size")
    if repeats < 1:
        raise ConfigError("repeats must be at least 1")
    callbacks = callbacks if callbacks is not None else LifecycleCallbacks()
    ids = AgentIdAllocator()
    records = []
    for size in sizes:
        samples: list[MigrationPhases] = []
        failed = 0
        for _ in range(repeats):
            agent = _experiment_agent(size, ids)
            try:
                outcome = migrate(agent, src, dst, transport, callbacks, at=0.0)
            except (TransportFailure, VerifyFailure) as exc:
                failed += 1
                logger.warning("migration sample failed at size %d: %s", size, exc)
                continue
            samples.append(outcome.phases)
        if not samples:
            logger.warning("all %d migration samples failed at size %d; no record", repeats, size)
            continue
        phases = MigrationPhases(
            prepare_s=statistics.median(p.prepare_s for p in samples),
            connect_s=statistics.median(p.connect_s for p in samples),
            transfer_s=statistics.median(p.transfer_s for p in samples),
            unpack_s=statistics.median(p.unpack_s for p in samples),
            verify_s=statistics.median(p.verify_s for p in samples),
        )
        records.append(
            CostRecord(
                kind=MIGRATION,
                agent_size_bytes=size,
                phases=phases,
                samples=len(samples),
                samples_failed=failed,
            )
        )
    return records


# --- centralized baseline ----------------------------------------------------


@dataclass(frozen=True)
class BaselineParams:
    """Inputs to the analytical centralized model.

    The defaults reproduce the reference measurements of roughly 105 s
    for transfer and 158 s total: 1.8e9 * 2 / 34e6 = 105.9 and
    + 1.8e9 / 34e6 = 158.8. The replication factor and the processing
    rate are a reconciliation of those measurements, not gospel; override
    them freely.
    """

    data_bytes: int = 1_800_000_000
    bandwidth_bytes_per_s: float = 34_000_000.0
    replication: int = 2
    compute_bytes_per_s: float = 34_000_000.0

    def __post_init__(self):
        if self.data_bytes < 0:
            raise ConfigError("data_bytes must be non-negative")
        if self.bandwidth_bytes_per_s <= 0 or self.compute_bytes_per_s <= 0:
            raise ConfigError("bandwidth and compute rates must be positive")
        if self.replication < 1:
            raise ConfigError("replication must be positive")


def hadoop_baseline(p: BaselineParams) -> tuple[float, float]:
    """(transfer_s, total_s) for shipping all raw data out and processing it centrally."""
    transfer_s = p.data_bytes * p.replication / p.bandwidth_bytes_per_s
    total_s = transfer_s + p.data_bytes / p.compute_bytes_per_s
    return transfer_s, total_s


@dataclass(frozen=True)
class ComparisonReport:
    """Localized run vs the centralized baseline."""

    baseline_transfer_s: float
    baseline_total_s: float
    framework_bytes_transferred: int
    framework_wall_time_s: float
    reduction_ratio: float
    data_bytes: int

    def to_json_dict(self) -> dict:
        return {
            "baseline_transfer_s": self.baseline_transfer_s,
            "baseline_total_s": self.baseline_total_s,
            "framework_bytes_transferred": self.framework_bytes_transferred,
            "framework_wall_time_s": self.framework_wall_time_s,
            "reduction_ratio": self.reduction_ratio,
            "data_bytes": self.data_bytes,
        }


def compare(job: JobResult, p: BaselineParams) -> ComparisonReport:
    """Put a completed run next to the baseline.

    ``reduction_ratio`` is framework bytes over raw data bytes; for any
    honestly aggregating workload it lives well inside [0, 1]. A ratio at
    or above 1 means the job did not aggregate at all.
    """
    transfer_s, total_s = hadoop_baseline(p)
    ratio = job.bytes_transferred_total / p.data_bytes if p.data_bytes else 0.0
    if ratio >= 1.0 and job.bytes_transferred_total > 0:
        logger.warning("reduction ratio %.3f >= 1: this job moved as much as the raw data", ratio)
    return ComparisonReport(
        baseline_transfer_s=transfer_s,
        baseline_total_s=total_s,
        framework_bytes_transferred=job.bytes_transferred_total,
        framework_wall_time_s=job.wall_time_s,
        reduction_ratio=ratio,
        data_bytes=p.data_bytes,
    )
