"""Fixtures shared across test modules."""

from pathlib import Path

import pytest

from heiscert.suites import RunConfig, run_suite


@pytest.fixture(scope="session")
def seed0_run(tmp_path_factory) -> Path:
    """The output directory of one seed-0 run of every suite: one
    certificate per claim plus report.json.  Tests read it and write
    their edited copies elsewhere."""
    out = tmp_path_factory.mktemp("seed0")
    run_suite(RunConfig(seed=0, output_dir=out))
    return out
