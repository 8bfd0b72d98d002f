import json
import tracemalloc
from importlib.resources import files
from pathlib import Path

import pytest

DATA = files("defi_stress") / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(str(DATA))


@pytest.fixture(scope="session")
def eth_csv(data_dir) -> Path:
    return data_dir / "eth_usd_daily.csv"


@pytest.fixture(scope="session")
def baseline_config(data_dir) -> dict:
    return json.loads((data_dir / "baseline_scenario.json").read_text())


@pytest.fixture(scope="session")
def attack_plan_raw(data_dir) -> dict:
    return json.loads((data_dir / "maker_feb2020.json").read_text())


@pytest.fixture(scope="session")
def dai_snapshot_csv(data_dir) -> Path:
    return data_dir / "dai_markets.csv"


@pytest.fixture
def traced_peak():
    """peak(fn) calls fn() and returns (bytes, fn's result): the peak of the
    memory tracemalloc traced during the call, numpy's data buffers
    included, above what was traced before it."""

    def peak(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            return tracemalloc.get_traced_memory()[1] - before, result
        finally:
            if started:
                tracemalloc.stop()

    return peak
