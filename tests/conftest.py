import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes ``os.sched_getaffinity`` report k usable CPUs, so a
    test runs the one-CPU or the multi-CPU path on any host."""

    def set_count(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    return set_count
