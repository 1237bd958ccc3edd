"""Cost experiments and the centralized-baseline comparison.

Two experiments sweep agent size: duplicating an agent on one node, and
migrating an agent between two nodes with its five-phase breakdown. Both
run one sweep: per size, each phase's median over the samples delivered;
a sample that fails in transport is logged and left out.
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
from dataclasses import asdict, astuple, dataclass, fields
from typing import IO, Callable, Iterable, Sequence

from .agents import Agent, AgentIdAllocator, AgentRole, LifecycleCallbacks, duplicate
from .envelope import MigrationPhases, migrate
from .errors import ConfigError, TransportFailure
from .orchestration import JobResult
from .transport import SimCpuModel

logger = logging.getLogger("locomap.cost")

DUPLICATION = "duplication"
MIGRATION = "migration"

CSV_COLUMNS = ["kind", "size_bytes", *(f.name for f in fields(MigrationPhases)), "total_s"]


@dataclass(frozen=True)
class CostRecord:
    """One row of a sweep: an agent size and each phase's median over the
    samples that were delivered (failed samples are logged and left out).

    Duplication uses only the prepare/unpack slots, reinterpreted as the
    copy and callback analogues; the other phases are zero.
    """

    kind: str
    agent_size_bytes: int
    phases: MigrationPhases

    @property
    def total_s(self) -> float:
        return self.phases.total_s

    def csv_row(self) -> list:
        return [self.kind, self.agent_size_bytes, *astuple(self.phases), self.total_s]


def write_cost_csv(records: Iterable[CostRecord], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.csv_row())


def _sweep(kind: str, sizes: Sequence[int], repeats: int, sample: Callable[[Agent], MigrationPhases]) -> list[CostRecord]:
    """Time ``sample`` on ``repeats`` fresh zero-payload mappers per size;
    a size with no delivered sample has no record."""
    if not sizes:
        raise ConfigError(f"{kind} experiment needs at least one size")
    if repeats < 1:
        raise ConfigError("repeats must be at least 1")
    if min(sizes) < 0:
        raise ConfigError(f"agent sizes must be non-negative, got {min(sizes)}")
    ids = AgentIdAllocator()
    records = []
    for size in sizes:
        samples = []
        for _ in range(repeats):
            mapper = Agent(id=ids.next(), role=AgentRole.MAPPER, job_id=0, payload=bytes(size))
            try:
                samples.append(astuple(sample(mapper)))
            except TransportFailure as exc:
                logger.warning("%s sample failed at size %d: %s", kind, size, exc)
        if not samples:
            logger.warning("all %d %s samples failed at size %d; no record", repeats, kind, size)
            continue
        phases = MigrationPhases(*map(statistics.median, zip(*samples)))
        records.append(CostRecord(kind=kind, agent_size_bytes=size, phases=phases))
    return records


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
    if mode not in ("sim", "measured"):
        raise ConfigError(f"unknown duplication mode {mode!r}")
    model = SimCpuModel()
    callbacks = callbacks if callbacks is not None else LifecycleCallbacks()

    def sample(mapper: Agent) -> MigrationPhases:
        t0 = time.perf_counter()
        callbacks.fire_depart(mapper)
        t1 = time.perf_counter()
        (clone,) = duplicate(mapper, 1)
        copied = bytearray(clone.payload)  # bytes() of a bytes object would not copy
        t2 = time.perf_counter()
        callbacks.fire_arrive(clone)
        t3 = time.perf_counter()
        if mode == "sim":
            copy_s, callback_s = model.duplication_times(len(copied))
        else:
            copy_s, callback_s = t2 - t1, (t1 - t0) + (t3 - t2)
        return MigrationPhases(copy_s, 0.0, 0.0, callback_s, 0.0)

    return _sweep(DUPLICATION, sizes, repeats, sample)


def migration_experiment(
    sizes: Sequence[int],
    repeats: int,
    transport,
    src: int,
    dst: int,
    callbacks: LifecycleCallbacks | None = None,
) -> list[CostRecord]:
    """Median five-phase migration cost between two nodes, per agent size."""
    return _sweep(MIGRATION, sizes, repeats, lambda agent: migrate(agent, src, dst, transport, callbacks).phases)


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
        return asdict(self)


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
