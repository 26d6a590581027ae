"""Job-shaped flow entry points behind `repro serve` (core/flow.py)."""

from __future__ import annotations

import pytest

from repro.adders import ripple_carry_adder
from repro.cec import check_equivalence
from repro.core import (
    execute_optimize_job,
    job_config_key,
    normalize_job_config,
)
from repro.store import runtime as store_runtime


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
