import sys
from pathlib import Path

import pytest

from locomap.registry import DEFAULT_REGISTRY
from locomap.transport import SimTransport

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def delivered_sim_sends(monkeypatch) -> list[int]:
    """The size of every payload a ``SimTransport.send`` delivers during the
    test, in order; a dropped send raises and is not recorded."""
    sizes: list[int] = []
    send = SimTransport.send

    def recording_send(transport, src, dst, payload, at=0.0):
        report = send(transport, src, dst, payload, at)
        sizes.append(len(payload))
        return report

    monkeypatch.setattr(SimTransport, "send", recording_send)
    return sizes


@pytest.fixture
def process_registry():
    """``DEFAULT_REGISTRY``, free to register on: copies of its four tables
    are assigned back after the test. By assignment, since ``register_map``
    and ``register_combine`` rebind ``_batch_maps``."""
    tables = ("_maps", "_batch_maps", "_reduces", "_combines")
    saved = {name: dict(getattr(DEFAULT_REGISTRY, name)) for name in tables}
    yield DEFAULT_REGISTRY
    for name, table in saved.items():
        setattr(DEFAULT_REGISTRY, name, table)


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    status = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
    name = report.nodeid.split("::")[-1]
    sys.stderr.write(f"\n[ACCEPTANCE] {name}: {status}\n")
