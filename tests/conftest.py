import multiprocessing
import os
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process alive: a helper or a pool
    must be reaped by the code that started it, on every path."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes ``os.sched_getaffinity`` report k usable CPUs, so a
    test runs the one-CPU or the multi-CPU path on any host."""

    def set_count(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    return set_count


@pytest.fixture
def one_cpu(monkeypatch):
    """Really pins this process to one CPU for the test, and holds the pin:
    ``os.sched_setaffinity`` is a no-op meanwhile, so neither the code under
    test nor a child it forks can move off that CPU. With ``cpus(2)`` this is
    a host that reports two CPUs while only one is free."""
    set_affinity = os.sched_setaffinity
    saved = os.sched_getaffinity(0)
    set_affinity(0, {min(saved)})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None)
    try:
        yield
    finally:
        set_affinity(0, saved)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` once under tracemalloc and returns
    the peak of the memory traced during the call, in bytes."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
