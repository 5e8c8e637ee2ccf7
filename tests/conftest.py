import os
from pathlib import Path

import pytest
from hypothesis import Phase, settings

from sfc_lab import SeedSpec, TimeGrid, sample_path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every property test draws the same examples on every run, and a slow
# example is not a failure; a failing example is shown as found, without the
# explain phase's rerun under coverage tracing
settings.register_profile(
    "sfc_lab", derandomize=True, deadline=None,
    phases=tuple(p for p in Phase if p is not Phase.explain),
)
settings.load_profile("sfc_lab")


@pytest.fixture(scope="session", autouse=True)
def package_on_subprocess_path():
    """Subprocesses (criterion 8, the demos) import sfc_lab from src, as pytest does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session", autouse=True)
def default_thread_count():
    """Runs use the default thread count (one per CPU) unless a test sets
    ``SFC_LAB_THREADS``, whatever the invoking shell exports."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("SFC_LAB_THREADS", raising=False)
        yield


@pytest.fixture(scope="session")
def grid256() -> TimeGrid:
    return TimeGrid(256)


@pytest.fixture(scope="session")
def paths256(grid256):
    """Ten fixed paths on the shared grid."""
    return [sample_path(SeedSpec(1234, idx), grid256) for idx in range(10)]
