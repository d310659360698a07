"""Fixtures shared across test modules."""

import os
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


@pytest.fixture
def serial(monkeypatch):
    """run_suite runs its claims in the calling process, as on one CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture
def pooled(monkeypatch):
    """run_suite runs its claims in two or more worker processes.  On a
    host with one CPU both workers share it: the mask claims CPUs 0 and
    1, and pinning does nothing."""
    if len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
