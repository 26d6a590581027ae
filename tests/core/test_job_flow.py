"""Job-shaped flow entry points behind `repro serve` (core/flow.py)."""

from __future__ import annotations

import io

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import AIG, aig_fingerprint, read_aag, write_aag
from repro.cec import check_equivalence
from repro.core import (
    LookaheadOptimizer,
    execute_optimize_job,
    job_config_key,
    normalize_job_config,
)
from repro.core.flow import job_store_key
from repro.store import runtime as store_runtime

from .test_config import ALTERNATIVES, MODEL


@pytest.fixture(autouse=True)
def _isolated_runtime():
    store_runtime.reset()
    yield
    store_runtime.reset()


class TestNormalize:
    def test_defaults(self):
        config = normalize_job_config(None)
        assert config["flow"] == "lookahead"
        assert config["lookahead"].arrival_times is None
        assert config["verify"] is False

    def test_unknown_key_rejected(self):
        # A typo, and a knob that no longer exists (old clients).
        for options in ({"flwo": "lookahead"}, {"spcf_prefilter": True}):
            with pytest.raises(ValueError):
                normalize_job_config(options)

    def test_unknown_flow_rejected(self):
        with pytest.raises(ValueError):
            normalize_job_config({"flow": "abc"})  # baselines not served

    def test_arrival_validation(self):
        config = normalize_job_config({"arrivals": {"a0": 3}})
        assert config["lookahead"].arrival_times == {"a0": 3}
        for bad in ({}, {"a0": "3"}, {"a0": True}, {3: 1}, [("a0", 3)]):
            with pytest.raises(ValueError):
                normalize_job_config({"arrivals": bad})

    def test_effort_knobs_default_to_none(self):
        # An explicit null is the flow's default, exactly like an
        # omitted key.
        knobs = ("max_rounds", "max_outputs_per_round", "sim_width",
                 "walk_modes", "max_iterations")
        for flow in ("lookahead", "lookahead-only"):
            nulls = normalize_job_config(
                {"flow": flow, **{knob: None for knob in knobs}}
            )
            assert nulls == normalize_job_config({"flow": flow})

    def test_effort_knobs_distinguish_configs(self):
        base = normalize_job_config(None)
        bounded = normalize_job_config({"max_rounds": 4, "sim_width": 512})
        assert job_config_key(base) != job_config_key(bounded)
        # walk-mode order is part of the identity (candidate order
        # matters to the optimizer).
        modes_a = normalize_job_config({"walk_modes": ["target", "full"]})
        modes_b = normalize_job_config({"walk_modes": ["full", "target"]})
        assert job_config_key(modes_a) != job_config_key(modes_b)

    def test_make_job_optimizer_applies_knobs(self):
        from repro.core.flow import make_job_optimizer

        config = normalize_job_config({
            "max_rounds": 4,
            "max_outputs_per_round": 6,
            "sim_width": 512,
            "walk_modes": ["target"],
        })
        opt = make_job_optimizer(config, workers=1)
        try:
            assert opt.config.max_rounds == 4
            assert opt.config.max_outputs_per_round == 6
            assert opt.config.sim_width == 512
            assert opt.config.walk_modes == ("target",)
        finally:
            opt.close()

    def test_key_ignores_verify_and_arrival_order(self):
        base = normalize_job_config({"arrivals": {"a": 1, "b": 2}})
        reordered = normalize_job_config({"arrivals": {"b": 2, "a": 1}})
        verified = normalize_job_config(
            {"arrivals": {"a": 1, "b": 2}, "verify": True}
        )
        assert job_config_key(base) == job_config_key(reordered)
        assert job_config_key(base) == job_config_key(verified)
        other = normalize_job_config({"arrivals": {"a": 1, "b": 3}})
        assert job_config_key(base) != job_config_key(other)


class TestExecute:
    def test_one_shot_job_matches_local_flow(self):
        aig = ripple_carry_adder(4)
        config = normalize_job_config({"flow": "lookahead-only"})
        out = execute_optimize_job(aig, config, workers=1)
        assert check_equivalence(aig, out)


def _aag(aig):
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


BASE = {"flow": "lookahead-only", "sim_width": 128}
"""A cheap job config; every variation below changes one thing of it."""

JOB_COUNTERS = ("store.job.hit", "store.job.miss", "store.hit", "store.miss")


def _run_job(aig, options):
    """(answer, store counter deltas) of one one-shot job."""
    before = [perf.counter(name) for name in JOB_COUNTERS]
    out = execute_optimize_job(aig, normalize_job_config(options), workers=1)
    return out, {
        name: perf.counter(name) - b for name, b in zip(JOB_COUNTERS, before)
    }


def _variations():
    """(label, options) differing from BASE in one option each."""
    for name, value in ALTERNATIVES.items():
        key = "arrivals" if name == "arrival_times" else name
        value = list(value) if isinstance(value, tuple) else value
        yield name, {**BASE, key: value}
    yield "rank_model", {**BASE, "rank": "prune", "rank_model": MODEL}
    yield "flow", {**BASE, "flow": "lookahead"}
    yield "max_iterations", {**BASE, "flow": "lookahead", "max_iterations": 2}


def _renamed_pi(aig):
    out = aig.extract()
    out.pi_names[0] = "renamed"
    return out


def _swapped_pos(aig):
    out = aig.extract()
    out.pos[:2] = out.pos[1::-1]
    out.po_names[:2] = out.po_names[1::-1]
    return out


class TestJobReplay:
    """A persistent store replays a repeated job whole (DESIGN 3.20)."""

    @pytest.fixture
    def store(self, tmp_path):
        path = str(tmp_path / "results.db")
        store_runtime.configure(path)
        return path

    def test_repeat_replays_without_running_the_optimizer(
        self, store, monkeypatch
    ):
        aig = ripple_carry_adder(4)
        cold, counts = _run_job(aig, BASE)
        assert counts["store.job.miss"] == 1
        assert counts["store.job.hit"] == 0

        def refuse(self, aig):
            raise AssertionError("a repeated job ran the optimizer")

        monkeypatch.setattr(LookaheadOptimizer, "optimize", refuse)
        hot, counts = _run_job(aig, BASE)
        # One lookup answers the whole job: no cone-level traffic.
        assert counts == {
            "store.job.hit": 1, "store.job.miss": 0,
            "store.hit": 1, "store.miss": 0,
        }
        store_runtime.reset()  # drop the memory tier: replay from disk
        store_runtime.configure(store)
        disk, counts = _run_job(aig, BASE)
        assert counts["store.job.hit"] == 1
        assert _aag(hot) == _aag(disk) == _aag(cold)
        assert hot.structure_digest() == cold.structure_digest()
        assert disk.structure_digest() == cold.structure_digest()
        monkeypatch.undo()
        store_runtime.reset()
        storeless, counts = _run_job(aig, BASE)
        assert counts["store.job.hit"] == counts["store.job.miss"] == 0
        assert _aag(storeless) == _aag(cold)

    def test_every_option_change_misses(self, store):
        aig = ripple_carry_adder(3)
        # Plant a recognizable foreign answer under the base job's key:
        # a variation that wrongly shares the key would return it.
        planted = ripple_carry_adder(2)
        store_runtime.get_store().namespace("job", encode=_aag).put(
            job_store_key(aig, normalize_job_config(BASE)), planted
        )
        out, counts = _run_job(aig, BASE)
        assert counts["store.job.hit"] == 1 and _aag(out) == _aag(planted)
        for label, options in _variations():
            out, counts = _run_job(aig, options)
            assert counts["store.job.hit"] == 0, label
            assert _aag(out) != _aag(planted), label
            if label == "rank":
                # 'log' jobs always run: their rows are a side effect.
                assert counts["store.job.miss"] == 0
                continue
            assert counts["store.job.miss"] == 1, label
            again, counts = _run_job(aig, options)
            assert counts["store.job.hit"] == 1, label
            assert _aag(again) == _aag(out), label

    @pytest.mark.parametrize(
        "change", [_renamed_pi, _swapped_pos], ids=["pi-name", "po-order"]
    )
    def test_every_input_change_misses(self, store, change):
        aig = ripple_carry_adder(3)
        cold, _ = _run_job(aig, BASE)
        other = change(aig)
        out, counts = _run_job(other, BASE)
        assert counts["store.job.hit"] == 0
        assert counts["store.job.miss"] == 1
        # The fresh answer keeps the changed interface.
        assert out.pi_names == other.pi_names
        assert out.po_names == other.po_names
        assert (out.pi_names, out.po_names) != (cold.pi_names, cold.po_names)

    def test_key_pins_variable_numbering(self):
        # Same AIGER text and structural fingerprint, different variable
        # numbering: the optimizer may break ties differently, so the
        # key tells them apart.
        first = AIG()
        x, y, z = first.add_pi("x"), first.add_pi("y"), first.add_pi("z")
        first.add_po(first.and_(first.and_(x, y), z), "f")
        late = AIG()
        x, y = late.add_pi("x"), late.add_pi("y")
        xy = late.and_(x, y)
        late.add_po(late.and_(xy, late.add_pi("z")), "f")
        assert _aag(first) == _aag(late)
        assert aig_fingerprint(first) == aig_fingerprint(late)
        config = normalize_job_config(BASE)
        assert job_store_key(first, config) != job_store_key(late, config)
        assert job_store_key(first, config) == job_store_key(
            read_aag(io.StringIO(_aag(first))), config
        )

    def test_verify_does_not_split_keys(self, store):
        aig = ripple_carry_adder(3)
        plain, _ = _run_job(aig, BASE)
        checked, counts = _run_job(aig, {**BASE, "verify": True})
        assert counts["store.job.hit"] == 1
        assert _aag(checked) == _aag(plain)

    def test_logged_jobs_write_rows_every_time(self, tmp_path):
        from repro.cli import main

        circuit = tmp_path / "rca3.aag"
        circuit.write_text(_aag(ripple_carry_adder(3)))
        data = tmp_path / "rows.jsonl"
        argv = [
            "optimize", str(circuit), "--flow", "lookahead-only",
            "--workers", "1", "--rank", "log", "--rank-data", str(data),
            "--store", str(tmp_path / "results.db"),
        ]
        assert main(argv) == 0
        rows = data.read_text().splitlines()
        assert rows
        assert main(argv) == 0
        assert data.read_text().splitlines() == rows + rows
        assert store_runtime.get_store().entries("job") == 0
