import contextlib
import multiprocessing
import os
import signal
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process alive: a helper or a pool
    must be reaped by the code that started it, on every path."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def starts(tmp_path, monkeypatch):
    """The pids of the processes that call ``Process.start``, in call order:
    a file records them, so a start inside a forked worker counts too."""
    log = tmp_path / "starts"
    log.touch()
    real = multiprocessing.process.BaseProcess.start

    def start(self):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        real(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return lambda: [int(line) for line in log.read_text().split()]


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes ``os.sched_getaffinity`` report k usable CPUs, so a
    test runs the one-CPU or the multi-CPU path on any host."""

    def set_count(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    return set_count


@pytest.fixture
def one_cpu():
    """Really pins this process to one CPU for the test, then restores its
    CPUs. The package sets no affinity, so a child it forks inherits the
    pin. With ``cpus(2)`` this is a host that reports two CPUs while only
    one is free."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


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


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` raises ``TimeoutError`` inside the block
    once it has run ``seconds`` of wall time, naming the function it stopped,
    so a search that never ends fails the test in bounded time. It runs on
    ``SIGALRM``, so only on the main thread; the previous handler is
    restored and the timer cleared."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s, in {frame.f_code.co_name}")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        except TimeoutError as exc:
            # raised afresh here: the interrupted frame may have no line
            # number, and pytest's report of its traceback then fails
            raise TimeoutError(*exc.args) from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
