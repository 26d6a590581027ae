"""Fuzz driver, artifact round-trips, and the `repro fuzz` CLI."""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.cli import main
from repro.verify import (
    INVARIANTS,
    FuzzFailure,
    dump_aig,
    fuzz,
    load_artifact,
    make_case,
    random_aig,
    replay_artifact,
    run_invariant,
    write_artifact,
)


class TestFuzzDriver:
    def test_clean_run_on_cheap_checks(self):
        report = fuzz(
            seed=0, budget_s=30.0, max_cases=3,
            checks=["aiger_roundtrip", "blif_roundtrip"],
        )
        assert report.ok
        assert report.cases == 3
        assert report.checks == 6
        assert "clean" in report.summary()

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown invariant"):
            fuzz(seed=0, max_cases=1, checks=["no_such_check"])

    def test_failure_is_shrunk_and_archived(self, tmp_path, monkeypatch):
        # Plant an invariant that rejects any circuit with >2 AND gates:
        # the driver must shrink the repro to the threshold and write a
        # replayable artifact.
        def planted(case):
            if case.aig.num_ands() > 2:
                return f"too many ands: {case.aig.num_ands()}"
            return None

        monkeypatch.setitem(INVARIANTS, "planted_size", planted)
        report = fuzz(
            seed=0, budget_s=30.0, max_cases=10,
            checks=["planted_size"], artifact_dir=str(tmp_path),
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.invariant == "planted_size"
        assert failure.circuit.num_ands() == 3  # minimal failing size
        assert failure.artifact_path
        case, invariant = load_artifact(failure.artifact_path)
        assert invariant == "planted_size"
        assert run_invariant(invariant, case) is not None

    def test_keep_going_collects_multiple(self, monkeypatch):
        monkeypatch.setitem(
            INVARIANTS, "always_fails", lambda case: "planted"
        )
        report = fuzz(
            seed=0, max_cases=3, checks=["always_fails"],
            shrink=False, keep_going=True,
        )
        assert len(report.failures) == 3


class TestArtifacts:
    def test_write_load_roundtrip(self, tmp_path):
        case = make_case(9, 2)
        failure = FuzzFailure(
            invariant="aiger_roundtrip", detail="synthetic", seed=9,
            case_index=2, config=case.config,
            arrival_times=case.arrival_times, circuit=case.aig,
        )
        path = write_artifact(failure, str(tmp_path))
        assert path.endswith(".json")
        with open(path) as fh:
            meta = json.load(fh)
        assert meta["invariant"] == "aiger_roundtrip"
        loaded, invariant = load_artifact(path)
        assert invariant == "aiger_roundtrip"
        assert dump_aig(loaded.aig) == dump_aig(case.aig)
        assert loaded.config == case.config
        assert loaded.arrival_times == case.arrival_times


class TestFuzzCli:
    def test_list_checks(self, capsys):
        assert main(["fuzz", "--list-checks"]) == 0
        out = capsys.readouterr().out
        for name in INVARIANTS:
            assert name in out

    def test_clean_run_exits_zero(self, capsys):
        rc = main([
            "fuzz", "--seed", "0", "--max-cases", "2",
            "--check", "aiger_roundtrip",
        ])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_failing_run_exits_nonzero_with_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setitem(
            INVARIANTS, "always_fails", lambda case: "planted failure"
        )
        rc = main([
            "fuzz", "--seed", "0", "--max-cases", "1",
            "--check", "always_fails", "--no-shrink",
            "--artifact-dir", str(tmp_path),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAILURE" in captured.out
        assert "regression artifact:" in captured.err
        assert os.listdir(str(tmp_path))  # .aag + .json were written

    def test_unknown_check_rejected(self, tmp_path, capsys):
        # A usage error, not the exit status 1 of an invariant failure.
        rc = main([
            "fuzz", "--max-cases", "1", "--check", "no_such_check",
            "--artifact-dir", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: unknown invariant(s) ['no_such_check']; known: ["
        )
        assert "Traceback" not in err
