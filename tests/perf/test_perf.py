"""The repro.perf telemetry registry."""

import time

import pytest

from repro.perf import PerfRegistry, get_workers


class TestPerfRegistry:
    def test_counters(self):
        reg = PerfRegistry()
        assert reg.counter("x") == 0
        reg.incr("x")
        reg.incr("x", 4)
        assert reg.counter("x") == 5

    def test_timer_scope_accumulates(self):
        reg = PerfRegistry()
        with reg.timer("t"):
            time.sleep(0.01)
        with reg.timer("t"):
            pass
        snap = reg.snapshot()
        assert snap["timers"]["t"]["calls"] == 2
        assert snap["timers"]["t"]["seconds"] >= 0.01

    def test_snapshot_merge(self):
        a, b = PerfRegistry(), PerfRegistry()
        a.incr("hits", 2)
        a.add_time("phase", 1.5)
        b.incr("hits", 3)
        b.merge(a.snapshot())
        assert b.counter("hits") == 5
        assert b.seconds("phase") == pytest.approx(1.5)

    def test_ratio(self):
        reg = PerfRegistry()
        assert reg.ratio("h", "m") == 0.0
        reg.incr("h", 3)
        reg.incr("m", 1)
        assert reg.ratio("h", "m") == pytest.approx(0.75)

    def test_reset(self):
        reg = PerfRegistry()
        reg.incr("x")
        reg.add_time("t", 1.0)
        reg.reset()
        assert reg.snapshot() == {
            "counters": {}, "timers": {}, "histograms": {}
        }

    def test_report_lists_everything(self):
        reg = PerfRegistry()
        reg.incr("cache.spcf.hit", 3)
        reg.incr("cache.spcf.miss", 1)
        reg.add_time("phase.reduce", 0.5)
        text = reg.report()
        assert "cache.spcf.hit" in text
        assert "phase.reduce" in text
        assert "spcf cache hit rate" in text
        assert "75.0%" in text


def test_fork_beside_a_counting_thread():
    """A child forked while another thread bumps counters can count.

    The daemon's pool forks its workers while submit handlers bump the
    process registry; a child forked with its lock held would hang.
    """
    import os
    import threading

    from repro import perf

    from ..store.test_sqlite import _exit_code

    stop = threading.Event()

    def count():
        while not stop.is_set():
            perf.incr("fork.test")

    thread = threading.Thread(target=count)
    thread.start()
    codes = []
    try:
        for _ in range(40):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    perf.incr("fork.test.child")
                    code = 0
                finally:
                    os._exit(code)
            codes.append(_exit_code(pid, 10))
            if codes[-1] != 0:
                break  # None: the child hung
    finally:
        stop.set()
        thread.join(timeout=60)
    assert codes == [0] * 40


class TestGetWorkers:
    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert get_workers(override=2) == 2

    def test_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert get_workers() == 7

    def test_default_at_least_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert get_workers() >= 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            get_workers()
