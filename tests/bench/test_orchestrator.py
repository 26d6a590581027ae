"""Sharded Table 2 orchestrator: manifest, shards, resume, merge, report.

Everything here runs on a tiny synthetic registry (2-bit ripple adders)
so the suite exercises the orchestration machinery, not the optimizer.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.adders import ripple_carry_adder
from repro.bench import orchestrator
from repro.bench.orchestrator import (
    OrchestratorError,
    job_artifact_path,
    load_artifact,
    load_manifest,
    merge_results,
    parse_shard,
    plan_manifest,
    render_report,
    run_shard,
    shard_jobs,
    update_experiments,
    write_manifest,
    write_merged,
)

REGISTRY = {
    "tiny2": lambda: ripple_carry_adder(2),
    "tiny3": lambda: ripple_carry_adder(3),
}

FLOWS = ["DC", "Lookahead"]


def tiny_manifest():
    return plan_manifest(flows=FLOWS, registry=REGISTRY)


class TestManifest:
    def test_plan_is_deterministic(self):
        a, b = tiny_manifest(), tiny_manifest()
        assert a == b
        assert a["fingerprint"] == b["fingerprint"]

    def test_full_plan_covers_table2(self):
        manifest = plan_manifest()
        from repro.bench import BENCHMARKS

        assert set(manifest["circuits"]) == set(BENCHMARKS)
        assert len(manifest["jobs"]) == len(BENCHMARKS) * 4
        # Effort options are recorded per circuit: the big fabrics get
        # bounded rounds, the small circuits the full flow.
        assert manifest["circuits"]["C432"]["lookahead_options"] == {}
        assert manifest["circuits"]["i10"]["lookahead_options"][
            "max_iterations"] == 1

    def test_fingerprint_tracks_config(self):
        base = tiny_manifest()
        fewer = plan_manifest(flows=["DC"], registry=REGISTRY)
        assert base["fingerprint"] != fewer["fingerprint"]
        subset = plan_manifest(
            circuits=["tiny2"], flows=FLOWS, registry=REGISTRY
        )
        assert base["fingerprint"] != subset["fingerprint"]

    def test_unknown_circuit_and_flow_rejected(self):
        with pytest.raises(OrchestratorError):
            plan_manifest(circuits=["nope"], registry=REGISTRY)
        with pytest.raises(OrchestratorError):
            plan_manifest(flows=["NotAFlow"], registry=REGISTRY)

    def test_roundtrip_and_tamper_detection(self, tmp_path):
        manifest = tiny_manifest()
        path = str(tmp_path / "m.json")
        write_manifest(manifest, path)
        assert load_manifest(path) == manifest
        tampered = dict(manifest)
        tampered["flows"] = ["DC"]
        with open(path, "w") as fh:
            json.dump(tampered, fh)
        with pytest.raises(OrchestratorError):
            load_manifest(path)


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("2/3") == (2, 3)
        for bad in ("0/2", "3/2", "1", "a/b", "1/0", "-1/2"):
            with pytest.raises(OrchestratorError):
                parse_shard(bad)

    def test_shards_partition_jobs(self):
        jobs = tiny_manifest()["jobs"]
        for n in (1, 2, 3, len(jobs), len(jobs) + 3):
            pieces = [shard_jobs(jobs, k, n) for k in range(1, n + 1)]
            flat = [job for piece in pieces for job in piece]
            assert sorted(j["id"] for j in flat) == sorted(
                j["id"] for j in jobs
            )
            sizes = [len(p) for p in pieces]
            assert max(sizes) - min(sizes) <= 1  # round-robin balance


class TestRunAndResume:
    def test_run_writes_artifacts_and_resumes(self, tmp_path):
        manifest = tiny_manifest()
        jobs_dir = str(tmp_path / "jobs")
        summary = run_shard(manifest, jobs_dir, registry=REGISTRY)
        assert summary == {
            "run": len(manifest["jobs"]), "skipped": 0, "stale": 0
        }
        for job in manifest["jobs"]:
            artifact = load_artifact(job_artifact_path(jobs_dir, job["id"]))
            assert artifact["fingerprint"] == manifest["fingerprint"]
            assert set(artifact["row"]) == {
                "gates", "levels", "delay_ps", "power_uw"
            }
        # Rerunning is a no-op: every artifact is current.
        again = run_shard(manifest, jobs_dir, registry=REGISTRY)
        assert again == {
            "run": 0, "skipped": len(manifest["jobs"]), "stale": 0
        }

    def test_killed_shard_resumes_where_it_died(self, tmp_path):
        """A shard killed mid-run redoes only the unfinished jobs, and
        the resumed result merges identically to an uninterrupted run."""
        manifest = tiny_manifest()
        total = len(manifest["jobs"])
        interrupted = str(tmp_path / "interrupted")
        reference = str(tmp_path / "reference")
        # "Kill" after two jobs: max_jobs stops exactly like a SIGKILL
        # between artifact writes would (artifacts are atomic).
        first = run_shard(
            manifest, interrupted, registry=REGISTRY, max_jobs=2
        )
        assert first["run"] == 2
        resumed = run_shard(manifest, interrupted, registry=REGISTRY)
        assert resumed == {"run": total - 2, "skipped": 2, "stale": 0}
        run_shard(manifest, reference, registry=REGISTRY)
        merged_a = merge_results(manifest, interrupted)
        merged_b = merge_results(manifest, reference)
        assert merged_a == merged_b

    def test_torn_artifact_is_redone(self, tmp_path):
        manifest = tiny_manifest()
        jobs_dir = str(tmp_path / "jobs")
        os.makedirs(jobs_dir)
        job = manifest["jobs"][0]
        with open(job_artifact_path(jobs_dir, job["id"]), "w") as fh:
            fh.write('{"fingerprint": "tru')  # torn mid-write
        summary = run_shard(manifest, jobs_dir, registry=REGISTRY)
        assert summary["skipped"] == 0
        assert summary["run"] == len(manifest["jobs"])

    def test_stale_fingerprint_artifacts_recomputed(self, tmp_path):
        manifest = tiny_manifest()
        jobs_dir = str(tmp_path / "jobs")
        run_shard(manifest, jobs_dir, registry=REGISTRY)
        # A different plan (fewer flows) stamps a different fingerprint.
        other = plan_manifest(flows=["DC"], registry=REGISTRY)
        assert other["fingerprint"] != manifest["fingerprint"]
        summary = run_shard(other, jobs_dir, registry=REGISTRY)
        assert summary["stale"] == len(other["jobs"])
        assert summary["run"] == len(other["jobs"])
        # The original manifest now sees those jobs as stale again.
        back = run_shard(manifest, jobs_dir, registry=REGISTRY)
        assert back["stale"] == len(other["jobs"])

    def test_registry_drift_rejected(self, tmp_path):
        manifest = tiny_manifest()
        drifted = dict(REGISTRY)
        drifted["tiny2"] = lambda: ripple_carry_adder(4)
        with pytest.raises(OrchestratorError, match="drifted"):
            run_shard(manifest, str(tmp_path / "jobs"), registry=drifted)

    def test_sharded_merge_equals_unsharded_byte_for_byte(self, tmp_path):
        manifest = tiny_manifest()
        sharded = str(tmp_path / "sharded")
        single = str(tmp_path / "single")
        for k in (1, 2):
            run_shard(manifest, sharded, shard=(k, 2), registry=REGISTRY)
        run_shard(manifest, single, registry=REGISTRY)
        merged_sharded = str(tmp_path / "sharded.json")
        merged_single = str(tmp_path / "single.json")
        write_merged(merge_results(manifest, sharded), merged_sharded)
        write_merged(merge_results(manifest, single), merged_single)
        with open(merged_sharded, "rb") as a, open(merged_single, "rb") as b:
            assert a.read() == b.read()


class TestMerge:
    def test_missing_jobs_abort_merge(self, tmp_path):
        manifest = tiny_manifest()
        jobs_dir = str(tmp_path / "jobs")
        run_shard(manifest, jobs_dir, shard=(1, 2), registry=REGISTRY)
        with pytest.raises(OrchestratorError, match="missing"):
            merge_results(manifest, jobs_dir)
        partial = merge_results(manifest, jobs_dir, allow_partial=True)
        done = sum(len(flows) for flows in partial["rows"].values())
        assert done == len(shard_jobs(manifest["jobs"], 1, 2))

    def test_stale_jobs_abort_merge(self, tmp_path):
        manifest = tiny_manifest()
        jobs_dir = str(tmp_path / "jobs")
        run_shard(manifest, jobs_dir, registry=REGISTRY)
        job = manifest["jobs"][0]
        path = job_artifact_path(jobs_dir, job["id"])
        artifact = load_artifact(path)
        artifact["fingerprint"] = "0" * 64
        with open(path, "w") as fh:
            json.dump(artifact, fh)
        with pytest.raises(OrchestratorError, match="stale"):
            merge_results(manifest, jobs_dir)

    def test_averages_match_hand_computation(self, tmp_path):
        manifest = tiny_manifest()
        jobs_dir = str(tmp_path / "jobs")
        run_shard(manifest, jobs_dir, registry=REGISTRY)
        merged = merge_results(manifest, jobs_dir)
        rows = merged["rows"]
        level_red = [
            1 - rows[n]["Lookahead"]["levels"] / rows[n]["DC"]["levels"]
            for n in manifest["circuits"]
        ]
        want = sum(level_red) / len(level_red)
        assert merged["averages"]["DC"]["levels_reduction"] == want
        assert "SIS" not in merged["averages"]  # flow not planned


class TestReport:
    def _merged(self, tmp_path):
        manifest = tiny_manifest()
        jobs_dir = str(tmp_path / "jobs")
        run_shard(manifest, jobs_dir, registry=REGISTRY)
        return merge_results(manifest, jobs_dir)

    def test_render_contains_rows_and_averages(self, tmp_path):
        text = render_report(self._merged(tmp_path))
        assert "| circuit |" in text
        assert "| tiny2 |" in text and "| tiny3 |" in text
        assert "vs DC" in text

    def test_update_experiments_splices_between_markers(self, tmp_path):
        merged = self._merged(tmp_path)
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text(
            "# Doc\n\nintro\n\n"
            f"{orchestrator.TABLE2_BEGIN}\nstale\n{orchestrator.TABLE2_END}\n"
            "\nepilogue\n"
        )
        update_experiments(str(doc), merged)
        text = doc.read_text()
        assert "stale" not in text
        assert "| tiny2 |" in text
        assert text.startswith("# Doc")
        assert text.rstrip().endswith("epilogue")
        # Idempotent: a second splice leaves one copy.
        update_experiments(str(doc), merged)
        assert doc.read_text().count("| tiny2 |") == 1

    def test_update_experiments_requires_markers(self, tmp_path):
        merged = self._merged(tmp_path)
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("no markers here\n")
        with pytest.raises(OrchestratorError, match="markers"):
            update_experiments(str(doc), merged)


class TestCliBadInput:
    """``repro bench run|merge`` turn bad input into one ``error:`` line."""

    def _run(self, capsys, argv):
        from repro.cli import main

        rc = main(argv)
        return rc, capsys.readouterr().err.splitlines()

    def _argv(self, tmp_path, command, manifest):
        argv = ["bench", command, "--manifest", str(manifest),
                "--jobs-dir", str(tmp_path / "jobs")]
        if command == "merge":
            argv += ["-o", str(tmp_path / "t2.json")]
        return argv

    @pytest.mark.parametrize("command", ["run", "merge"])
    def test_missing_manifest(self, tmp_path, capsys, command):
        manifest = tmp_path / "typo.json"
        rc, err = self._run(capsys, self._argv(tmp_path, command, manifest))
        assert rc == 1
        assert err == [
            f"error: cannot read manifest {manifest}: "
            "No such file or directory"
        ]
        assert not (tmp_path / "jobs").exists()

    @pytest.mark.parametrize("command", ["run", "merge"])
    @pytest.mark.parametrize("text, problem", [
        ('{"version": 1, "jobs": [', "is not JSON: "),
        ("[]", "is not a JSON object"),
    ], ids=["truncated", "array"])
    def test_malformed_manifest(self, tmp_path, capsys, command, text,
                                problem):
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        rc, err = self._run(capsys, self._argv(tmp_path, command, manifest))
        assert rc == 1
        assert len(err) == 1
        assert err[0].startswith(f"error: manifest {manifest} {problem}")
        assert not (tmp_path / "jobs").exists()

    def test_bad_workers_env_fails_before_any_job(
        self, tmp_path, capsys, monkeypatch
    ):
        manifest = tmp_path / "m.json"
        write_manifest(
            plan_manifest(circuits=["C432"], flows=["DC", "Lookahead"]),
            str(manifest),
        )
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        rc, err = self._run(capsys, self._argv(tmp_path, "run", manifest))
        assert rc == 1
        assert err == ["error: REPRO_WORKERS must be an integer, got 'abc'"]
        assert not (tmp_path / "jobs").exists()  # no job ran
