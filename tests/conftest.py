"""Shared test setup."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def many_cpus(monkeypatch) -> None:
    """Report 64 CPUs, so that parallelism alone sizes a process pool.

    ``run_experiment`` caps its workers at ``os.cpu_count()``; without this a
    pool test on a machine with one CPU would run in process on both sides
    of its comparison.  Tests that run the package in a subprocess see the
    real CPU count.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
