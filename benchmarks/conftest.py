"""Benchmark fixtures: deterministic seeding per benchmark, plus the
machine-readable artifacts written at session end."""

import numpy as np
import pytest

from repro.utils import set_seed


@pytest.fixture(autouse=True)
def _seed_everything():
    set_seed(2024)
    np.random.seed(2024)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<suite>.json`` per suite that recorded something
    this session (``harness.flush_bench_metrics``): the bench modules'
    scenario bodies, and ``BENCH_observability.json`` with every printed
    table/series plus the metrics registry, so CI can gate and diff the perf
    trajectory across commits."""
    import harness

    rep = session.config.pluginmanager.get_plugin("terminalreporter")
    for path in harness.flush_bench_metrics():
        if rep is not None:
            rep.write_line(f"benchmark metrics written to {path}")
