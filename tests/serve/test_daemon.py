"""End-to-end daemon coverage: warm replay, batching, failure semantics.

All tests run the daemon in-process (real sockets on an ephemeral
loopback port, real runner threads) — the subprocess lifecycle
(signals, exit codes) is covered in ``test_cli.py``.
"""

from __future__ import annotations

import io
import sys
import threading
import time

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import read_aag, write_aag
from repro.cec import check_equivalence
from repro.serve import ReproDaemon, ServeClient, ServeError
from repro.serve import daemon as daemon_module
from repro.store import runtime as store_runtime


@pytest.fixture(autouse=True)
def _isolated_runtime():
    """Daemons configure the process runtime store; isolate each test."""
    store_runtime.reset()
    perf.reset()
    yield
    store_runtime.reset()


@pytest.fixture
def daemon(tmp_path):
    d = ReproDaemon(
        store=str(tmp_path / "store.db"),
        workers=1,
        job_timeout=120.0,
        endpoint_file=str(tmp_path / "daemon.serve.json"),
    )
    d.start()
    yield d
    d.stop()


def _client(daemon: ReproDaemon) -> ServeClient:
    return ServeClient(daemon.host, daemon.port)


def _rca_text(width: int = 4) -> str:
    buf = io.StringIO()
    write_aag(ripple_carry_adder(width), buf)
    return buf.getvalue()


class TestLifecycle:
    def test_ping_and_status(self, daemon):
        client = _client(daemon)
        assert client.ping()
        status = client.status()
        assert status["port"] == daemon.port
        assert status["persistent"] is True
        assert status["queue_depth"] == 0
        assert status["jobs"]["submitted"] == 0
        assert not status["draining"]

    def test_endpoint_discovery(self, daemon):
        client = ServeClient.resolve(endpoint_file=daemon.endpoint_file)
        assert client.ping()

    def test_stop_is_idempotent(self, daemon):
        daemon.stop()
        daemon.stop()
        assert not _client(daemon).ping()

    def test_switch_interval_lowered_while_running(self, tmp_path):
        # Door answers take the GIL back sooner from a computing job.
        before = sys.getswitchinterval()
        d = ReproDaemon(endpoint_file=str(tmp_path / "d.serve.json"))
        d.start()
        try:
            assert sys.getswitchinterval() == min(
                before, daemon_module.SWITCH_INTERVAL_S
            )
        finally:
            d.stop()
        assert sys.getswitchinterval() == before

    def test_second_stop_waits_for_teardown(self, daemon, monkeypatch):
        # The first stop() stalls inside its teardown, before the
        # listener closes; a concurrent stop() must not return until that
        # teardown is done.
        entered = threading.Event()
        remove_endpoint = daemon_module.remove_endpoint

        def slow_remove_endpoint(path):
            entered.set()
            time.sleep(0.5)
            remove_endpoint(path)

        monkeypatch.setattr(
            daemon_module, "remove_endpoint", slow_remove_endpoint
        )
        first = threading.Thread(target=daemon.stop)
        first.start()
        assert entered.wait(timeout=10)
        daemon.stop()
        with pytest.raises(ServeError):
            _client(daemon).status()
        first.join(timeout=30)
        assert not first.is_alive()

    def test_shutdown_op_drains_and_exits(self, daemon):
        client = _client(daemon)
        client.shutdown()
        assert daemon._stop_event.wait(timeout=30)
        daemon.stop()
        with pytest.raises(ServeError):
            client.status()


class TestSubmit:
    def test_same_circuit_twice_is_store_warm_and_bit_identical(
        self, daemon, tmp_path
    ):
        client = _client(daemon)
        text = _rca_text()
        first = client.submit(text, timeout=120)
        second = client.submit(text, timeout=120)
        # Identical QoR, identical circuit: the store only replays what
        # the cold run would have computed.
        assert second["depth"] == first["depth"]
        assert second["ands"] == first["ands"]
        assert second["circuit"] == first["circuit"]
        # The first job misses once in the job namespace (the runner's
        # lookup; the door's is in no job's counts), however many cone
        # cache lookups its optimizer makes.  The second job is one
        # lookup in the job namespace, replayed whole: no optimizer run.
        assert first["store"] == {"hits": 0, "misses": 1, "hit_rate": 0.0}
        assert second["store"] == {"hits": 1, "misses": 0, "hit_rate": 1.0}
        assert perf.counter("store.job.hit") == 1
        status = client.status()
        assert status["jobs"]["submitted"] == 2
        assert status["jobs"]["completed"] == 2
        assert status["jobs"]["failed"] == 0
        # The result is a real optimization of the input.
        before = read_aag(io.StringIO(text))
        after = read_aag(io.StringIO(second["circuit"]))
        assert check_equivalence(before, after)

    def test_submit_without_circuit_return(self, daemon):
        client = _client(daemon)
        result = client.submit(_rca_text(), timeout=120, return_circuit=False)
        assert "circuit" not in result
        assert result["ands"] > 0

    def test_verify_option(self, daemon):
        client = _client(daemon)
        result = client.submit(
            _rca_text(), options={"verify": True}, timeout=120
        )
        assert result["depth"] <= read_aag(io.StringIO(_rca_text())).num_ands()

    def test_concurrent_clients_share_one_store(self, daemon):
        """Two submitters racing on one daemon/store both get answers."""
        client = _client(daemon)
        text = _rca_text()
        results, errors = [], []

        def submitter():
            try:
                results.append(client.submit(text, timeout=120))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=submitter) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors
        assert len(results) == 2
        assert results[0]["circuit"] == results[1]["circuit"]
        status = _client(daemon).status()
        assert status["jobs"]["completed"] == 2
        assert status["in_flight"] == 0
        assert status["queue_depth"] == 0

    def test_status_after_answer_shows_job_finished(self, daemon, monkeypatch):
        """A status sent once the answer arrives sees the job finished.

        The job's thread is held right after it releases the answer, so
        the count can only be right if it was committed before then.
        """
        release = threading.Event()
        real_finish = daemon_module.Job.finish

        def finish_then_hold(job, *args, **kwargs):
            committed = real_finish(job, *args, **kwargs)
            release.wait(60)
            return committed

        monkeypatch.setattr(daemon_module.Job, "finish", finish_then_hold)
        client = _client(daemon)
        try:
            result = client.submit(_rca_text(), timeout=120)
            status = client.status()
        finally:
            release.set()
        assert result["ands"] > 0
        assert status["in_flight"] == 0
        assert status["jobs"]["completed"] == 1


class TestDoor:
    """A stored answer is given at submit, whatever the runner is doing."""

    def test_repeat_overtakes_a_held_runner(self, daemon, monkeypatch):
        client = _client(daemon)
        text = _rca_text()
        first = client.submit(text, timeout=120)
        # Hold the single runner on another circuit's job.
        held_text = _rca_text(3)
        held_digest = read_aag(io.StringIO(held_text)).structure_digest()
        entered, release = threading.Event(), threading.Event()
        real_execute = daemon_module.execute_optimize_job

        def held_execute(aig, config, **kwargs):
            if aig.structure_digest() == held_digest:
                entered.set()
                release.wait(60)
            return real_execute(aig, config, **kwargs)

        monkeypatch.setattr(
            daemon_module, "execute_optimize_job", held_execute
        )
        held = []
        holder = threading.Thread(
            target=lambda: held.append(client.submit(held_text, timeout=120))
        )
        holder.start()
        try:
            assert entered.wait(60)
            # Without the door this repeat would wait out the held job.
            impatient = ServeClient(daemon.host, daemon.port, timeout=20)
            second = impatient.submit(text)
            assert not release.is_set()
            during = client.status()
        finally:
            release.set()
            holder.join(120)
        assert second["circuit"] == first["circuit"]
        assert (second["depth"], second["ands"], second["input"]) == (
            first["depth"], first["ands"], first["input"]
        )
        assert second["store"] == {"hits": 1, "misses": 0, "hit_rate": 1.0}
        assert during["jobs"]["submitted"] == 3
        assert during["jobs"]["completed"] == 2
        assert during["jobs"]["door"] == 1
        assert during["in_flight"] == 1
        # Per-job store counts stay exact: the held job's leave out the
        # door's hit, and only the two door misses are in no job's.
        answers = (first, held[0], second)
        assert perf.counter("store.job.hit") == sum(
            answer["store"]["hits"] for answer in answers
        )
        assert perf.counter("store.job.miss") == 2 + sum(
            answer["store"]["misses"] for answer in answers
        )
        assert client.status()["store_hits"] == perf.counter("store.job.hit")

    def test_verify_runs_at_the_door(self, daemon, monkeypatch):
        client = _client(daemon)
        text = _rca_text()
        first = client.submit(text, options={"verify": True}, timeout=120)
        checked = []
        real_check = daemon_module.check_equivalence

        def counting_check(before, after):
            checked.append(threading.current_thread().name)
            return real_check(before, after)

        monkeypatch.setattr(
            daemon_module, "check_equivalence", counting_check
        )
        second = client.submit(text, options={"verify": True}, timeout=120)
        assert second["circuit"] == first["circuit"]
        assert len(checked) == 1
        assert not checked[0].startswith("repro-serve-job")
        # A failing check fails a door answer as it fails a runner's.
        monkeypatch.setattr(
            daemon_module, "check_equivalence", lambda before, after: False
        )
        with pytest.raises(ServeError) as exc:
            client.submit(text, options={"verify": True}, timeout=120)
        assert exc.value.code == "failed"
        status = client.status()
        assert status["jobs"]["door"] == 2
        assert status["jobs"]["completed"] == 2
        assert status["jobs"]["failed"] == 1

    def test_storeless_daemon_queues_every_job(self, tmp_path):
        d = ReproDaemon(
            workers=1,
            job_timeout=120.0,
            endpoint_file=str(tmp_path / "memory.serve.json"),
        )
        d.start()
        try:
            client = _client(d)
            first = client.submit(_rca_text(), timeout=120)
            second = client.submit(_rca_text(), timeout=120)
            status = client.status()
        finally:
            d.stop()
        assert second["circuit"] == first["circuit"]
        assert status["persistent"] is False
        assert status["jobs"]["door"] == 0
        assert status["jobs"]["completed"] == 2
        assert perf.counter("store.job.miss") == 0


class TestRejection:
    def test_unknown_flow_is_bad_request(self, daemon):
        with pytest.raises(ServeError) as exc:
            _client(daemon).submit(
                _rca_text(), options={"flow": "bogus"}, timeout=10
            )
        assert exc.value.code == "bad-request"

    def test_unknown_option_is_bad_request(self, daemon):
        with pytest.raises(ServeError) as exc:
            _client(daemon).submit(
                _rca_text(), options={"flwo": "lookahead"}, timeout=10
            )
        assert exc.value.code == "bad-request"

    def test_malformed_circuit_is_bad_request(self, daemon):
        with pytest.raises(ServeError) as exc:
            _client(daemon).submit("this is not an AIG", timeout=10)
        assert exc.value.code == "bad-request"

    def test_unknown_arrival_name_is_bad_request(self, daemon):
        with pytest.raises(ServeError) as exc:
            _client(daemon).submit(
                _rca_text(),
                options={"arrivals": {"no_such_pi": 3}},
                timeout=10,
            )
        assert exc.value.code == "bad-request"

    def test_unknown_op_is_bad_request(self, daemon):
        with pytest.raises(ServeError) as exc:
            _client(daemon).request({"op": "frobnicate"}, timeout=10)
        assert exc.value.code == "bad-request"

    @pytest.mark.parametrize("option", [
        {"rank": "off"},
        {"rank_model": {"format": "repro-rank-model"}},
    ], ids=["rank", "rank_model"])
    def test_deleted_rank_option_is_bad_request(self, daemon, option):
        client = _client(daemon)
        with pytest.raises(ServeError) as exc:
            client.submit(_rca_text(), options=option, timeout=10)
        assert exc.value.code == "bad-request"
        assert str(exc.value) == f"unknown options: {next(iter(option))}"
        # The rejection leaves the daemon serving.
        result = client.submit(_rca_text(), timeout=120)
        assert result["ands"] > 0


class TestTimeout:
    def test_watchdog_answers_and_counts(self, daemon):
        client = _client(daemon)
        with pytest.raises(ServeError) as exc:
            # Far below any real optimization time: the watchdog fires.
            client.submit(_rca_text(), timeout=0.01)
        assert exc.value.code == "timeout"
        status = client.status()
        assert status["jobs"]["timeout"] == 1
        assert status["jobs"]["completed"] == 0
        # The daemon survives and serves the next job normally
        # (the poisoned optimizer was replaced).
        result = client.submit(_rca_text(), timeout=120)
        assert result["ands"] > 0
