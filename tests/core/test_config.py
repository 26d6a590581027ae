"""LookaheadConfig: one validation, one key, one payload codec.

The validation table runs every bad value through every entry point that
can spell it — the optimizer constructor, ``lookahead_flow``, a serve
job (``normalize_job_config``) and ``repro optimize`` — and requires the
same message from each: they all reach the one ``__post_init__``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.adders import ripple_carry_adder
from repro.aig import write_aag
from repro.core import (
    FLOW_DEFAULTS,
    LookaheadConfig,
    LookaheadOptimizer,
    job_config_key,
    lookahead_flow,
    normalize_job_config,
)
from repro.rank import passthrough_model
from repro.store import runtime as store_runtime

MODEL = passthrough_model().payload()

ENTRY_POINTS = ("constructor", "flow", "job", "cli")
NO_CLI = ("constructor", "flow", "job")

# (kwargs, message, cli flags, entry points).  kwargs use the Python
# field names; a job spells ``arrival_times`` as ``arrivals``.  "{model}"
# in a flag is a rank-model file written by the test.
BAD_VALUES = {
    "walk-bogus": (
        {"walk_modes": ("bogus",)},
        "unknown walk modes ['bogus']; expected a subset of "
        "('target', 'full')",
        ["--walk-modes", "bogus"], ENTRY_POINTS,
    ),
    "walk-sideways": (
        {"walk_modes": ["sideways"]},
        "unknown walk modes ['sideways']; expected a subset of "
        "('target', 'full')",
        ["--walk-modes", "sideways"], ENTRY_POINTS,
    ),
    "walk-partly-bad": (
        {"walk_modes": ["target", "bogus"]},
        "unknown walk modes ['bogus']; expected a subset of "
        "('target', 'full')",
        ["--walk-modes", "target,bogus"], ENTRY_POINTS,
    ),
    "walk-empty": (
        {"walk_modes": []},
        "walk_modes must be a non-empty list of mode names",
        ["--walk-modes", ","], ENTRY_POINTS,
    ),
    "walk-empty-tuple": (
        {"walk_modes": ()},
        "walk_modes must be a non-empty list of mode names",
        None, ("constructor", "flow"),
    ),
    "walk-string": (
        {"walk_modes": "target"},
        "walk_modes must be a non-empty list of mode names",
        None, NO_CLI,
    ),
    "walk-int": (
        {"walk_modes": 42},
        "walk_modes must be a non-empty list of mode names",
        None, NO_CLI,
    ),
    # A job's null means "the default"; only the keyword path sees None.
    "walk-none": (
        {"walk_modes": None},
        "walk_modes must be a non-empty list of mode names",
        None, ("constructor", "flow"),
    ),
    "max-rounds-zero": (
        {"max_rounds": 0},
        "max_rounds must be a positive integer, got 0",
        None, NO_CLI,
    ),
    "max-rounds-bool": (
        {"max_rounds": True},
        "max_rounds must be a positive integer, got True",
        None, NO_CLI,
    ),
    "sim-width-negative": (
        {"sim_width": -1},
        "sim_width must be a positive integer, got -1",
        None, NO_CLI,
    ),
    "sim-width-string": (
        {"sim_width": "512"},
        "sim_width must be a positive integer, got '512'",
        None, NO_CLI,
    ),
    "max-iterations-zero": (
        {"max_iterations": 0},
        "max_iterations must be a positive integer, got 0",
        None, ("job",),
    ),
    "spcf-tier-exact": (
        {"spcf_tier": "exact"},
        "unknown SPCF tier 'exact'; expected one of "
        "('auto', 'overapprox', 'signature')",
        ["--spcf-tier", "exact"], ENTRY_POINTS,
    ),
    "area-effort": (
        {"area_effort": "extreme"},
        "unknown area effort 'extreme'; expected one of "
        "('low', 'medium', 'high')",
        ["--area-effort", "extreme"], ENTRY_POINTS,
    ),
    # The deleted SAT-portfolio knob is an unknown option now.
    "sat-portfolio": (
        {"sat_portfolio": "sprint"},
        "unknown options: sat_portfolio",
        None, ("job",),
    ),
    "rank-mode": (
        {"rank": "bogus"},
        "unknown rank mode 'bogus'; expected one of ('off', 'log', 'prune')",
        ["--rank", "bogus"], ENTRY_POINTS,
    ),
    "prune-without-model": (
        {"rank": "prune"},
        "rank='prune' requires a rank_model "
        "(a model path, payload dict, or RankModel)",
        ["--rank", "prune"], ENTRY_POINTS,
    ),
    "model-without-prune": (
        {"rank_model": MODEL},
        "rank_model is only meaningful with rank='prune'",
        ["--rank-model", "{model}"], ENTRY_POINTS,
    ),
    "malformed-model": (
        {"rank": "prune", "rank_model": {"format": "bogus"}},
        "not a rank model payload: format 'bogus'",
        None, NO_CLI,
    ),
    "rank-data-without-log": (
        {"rank_data": "data.jsonl"},
        "rank_data is only meaningful with rank='log'",
        ["--rank-data", "data.jsonl"], ("constructor", "flow", "cli"),
    ),
    "arrival-string": (
        {"arrival_times": {"a0": "3"}},
        "arrival time for 'a0' must be an integer, got '3'",
        None, NO_CLI,
    ),
    "arrival-bool": (
        {"arrival_times": {"a0": True}},
        "arrival time for 'a0' must be an integer, got True",
        None, NO_CLI,
    ),
    "arrival-float": (
        {"arrival_times": {"a0": 1.5}},
        "arrival time for 'a0' must be an integer, got 1.5",
        ["--arrival", "a0=1.5"], ENTRY_POINTS,
    ),
    "arrival-name": (
        {"arrival_times": {3: 1}},
        "arrival name 3 is not a string",
        None, NO_CLI,
    ),
    "arrival-pairs": (
        {"arrival_times": [("a0", 3)]},
        "arrival times must be a {name: int} map, got [('a0', 3)]",
        None, NO_CLI,
    ),
    "arrival-empty-job": (
        {"arrival_times": {}},
        "arrivals must be a non-empty {name: int} map",
        None, ("job",),
    ),
}

CASES = [
    pytest.param(name, entry, id=f"{name}-{entry}")
    for name, (_kw, _msg, _cli, entries) in BAD_VALUES.items()
    for entry in entries
]


@pytest.fixture(autouse=True)
def _isolated_runtime():
    store_runtime.reset()
    yield
    store_runtime.reset()


@pytest.mark.parametrize("name, entry", CASES)
def test_bad_value_same_message_everywhere(name, entry, tmp_path, capsys):
    kwargs, message, cli_flags, _entries = BAD_VALUES[name]
    if entry == "cli":
        from repro.cli import main

        circuit = tmp_path / "rca2.aag"
        with open(circuit, "w") as fh:
            write_aag(ripple_carry_adder(2), fh)
        model = tmp_path / "model.json"
        passthrough_model().save(str(model))
        flags = [flag.replace("{model}", str(model)) for flag in cli_flags]
        try:
            status = main(
                ["optimize", str(circuit), "--flow", "lookahead-only"] + flags
            )
        except SystemExit as exc:  # argparse rejects typed flags itself
            status = exc.code
        assert status == 2
        assert message in capsys.readouterr().err
        return
    with pytest.raises(ValueError) as raised:
        if entry == "constructor":
            LookaheadOptimizer(**kwargs)
        elif entry == "flow":
            lookahead_flow(ripple_carry_adder(2), **kwargs)
        else:
            options = dict(kwargs)
            if "arrival_times" in options:
                options["arrivals"] = options.pop("arrival_times")
            normalize_job_config(options)
    assert str(raised.value) == message


# -- codec and key ----------------------------------------------------------

ALTERNATIVES = {
    "max_rounds": 7,
    "max_outputs_per_round": 3,
    "sim_width": 256,
    "seed": 5,
    "use_rules": False,
    "walk_modes": ("full", "target"),
    "spcf_tier": "signature",
    "area_recovery": False,
    "area_effort": "high",
    "arrival_times": {"a0": 2},
    "rank": "log",
}
"""A valid non-default value for every field (rank_model: below)."""


def _configs():
    base = LookaheadConfig()
    yield base
    for name, value in ALTERNATIVES.items():
        yield dataclasses.replace(base, **{name: value})
    yield LookaheadConfig(**ALTERNATIVES)
    yield dataclasses.replace(base, rank="prune", rank_model=MODEL)
    yield LookaheadConfig(rank="prune", rank_model=MODEL, **{
        k: v for k, v in ALTERNATIVES.items() if k != "rank"
    })


def test_alternatives_cover_every_field():
    names = {f.name for f in dataclasses.fields(LookaheadConfig)}
    assert names == set(ALTERNATIVES) | {"rank_model"}


@pytest.mark.parametrize("config", list(_configs()))
def test_payload_round_trip(config):
    payload = config.to_payload()
    assert LookaheadConfig.from_payload(payload) == config
    assert LookaheadConfig.from_payload(payload).key() == config.key()


def test_every_single_field_change_changes_the_key():
    keys = [config.key() for config in _configs()]
    assert len(set(keys)) == len(keys)
    m2 = passthrough_model(meta={"variant": 2}).payload()
    a = LookaheadConfig(rank="prune", rank_model=MODEL)
    b = LookaheadConfig(rank="prune", rank_model=m2)
    assert a.key() != b.key() and a != b


def test_key_ignores_arrival_order_and_model_spelling(tmp_path):
    a = LookaheadConfig(arrival_times={"a": 1, "b": 2})
    b = LookaheadConfig(arrival_times={"b": 2, "a": 1})
    assert a == b and a.key() == b.key() and hash(a) == hash(b)
    path = tmp_path / "model.json"
    passthrough_model().save(str(path))
    by_path = LookaheadConfig(rank="prune", rank_model=str(path))
    by_object = LookaheadConfig(rank="prune", rank_model=passthrough_model())
    by_payload = LookaheadConfig(rank="prune", rank_model=MODEL)
    assert by_path == by_object == by_payload


def test_empty_arrivals_are_unit_delay():
    assert LookaheadConfig(arrival_times={}) == LookaheadConfig()


def test_payload_is_json_with_the_wire_names():
    import json

    config = LookaheadConfig(arrival_times={"a0": 3}, walk_modes=("full",))
    payload = json.loads(json.dumps(config.to_payload()))
    assert payload["arrivals"] == {"a0": 3}
    assert payload["walk_modes"] == ["full"]
    assert "arrival_times" not in payload
    assert "max_outputs_per_round" not in payload  # unset: omitted


def test_from_payload_rules():
    with pytest.raises(ValueError, match="unknown options: spcf_prefilter"):
        LookaheadConfig.from_payload({"spcf_prefilter": True})
    with pytest.raises(ValueError, match="unknown options: arrival_times"):
        LookaheadConfig.from_payload({"arrival_times": {"a0": 1}})
    with pytest.raises(ValueError, match="embed the model payload"):
        LookaheadConfig.from_payload(
            {"rank": "prune", "rank_model": "model.json"}
        )
    # null takes the default — the field's, or the supplied one.
    assert LookaheadConfig.from_payload({"sim_width": None}) \
        == LookaheadConfig()
    assert LookaheadConfig.from_payload(
        {"max_rounds": None}, {"max_rounds": 9}
    ).max_rounds == 9


@pytest.mark.parametrize("flow", sorted(FLOW_DEFAULTS))
def test_jobs_start_from_the_flow_defaults(flow):
    job = normalize_job_config({"flow": flow})
    assert job["lookahead"] == LookaheadConfig(**FLOW_DEFAULTS[flow])
    assert normalize_job_config({"flow": flow, "max_rounds": 3})[
        "lookahead"
    ].max_rounds == 3


def test_job_key_separates_output_affecting_changes():
    base = {"flow": "lookahead"}
    variants = [base, {"flow": "lookahead-only"}, {**base, "max_iterations": 2}]
    for name, value in ALTERNATIVES.items():
        key = "arrivals" if name == "arrival_times" else name
        payload = LookaheadConfig(**{name: value}).to_payload()
        variants.append({**base, key: payload[key]})
    keys = {job_config_key(normalize_job_config(v)) for v in variants}
    assert len(keys) == len(variants)


def test_optimizer_options_override_a_config():
    config = LookaheadConfig(max_rounds=3, sim_width=256)
    opt = LookaheadOptimizer(config=config, seed=4, workers=1)
    try:
        assert opt.config == dataclasses.replace(config, seed=4)
    finally:
        opt.close()


# -- CLI: a bad option value is an error line, not a traceback -------------

BAD_ARGV = {
    "walk-modes-empty": ["optimize", "{aag}", "--walk-modes", ","],
    "walk-modes-unknown": ["optimize", "{aag}", "--walk-modes", "sideways"],
    "arrival-unparsable": ["optimize", "{aag}", "--arrival", "a0=x"],
    "arrival-file-missing": [
        "optimize", "{aag}", "--arrival-file", "{tmp}/missing.json",
    ],
    "rank-model-missing": [
        "optimize", "{aag}", "--rank", "prune",
        "--rank-model", "{tmp}/missing.json",
    ],
    "stats-arrival-unparsable": ["stats", "{aag}", "--arrival", "a0=x"],
    "stats-arrival-file-missing": [
        "stats", "{aag}", "--arrival-file", "{tmp}/missing.json",
    ],
}


def test_cli_rejects_the_deleted_sat_portfolio_flag(tmp_path, capsys):
    from repro.cli import main

    circuit = tmp_path / "rca2.aag"
    with open(circuit, "w") as fh:
        write_aag(ripple_carry_adder(2), fh)
    with pytest.raises(SystemExit) as raised:
        main(["optimize", str(circuit), "--sat-portfolio", "sprint"])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --sat-portfolio" in err


@pytest.mark.parametrize("argv", list(BAD_ARGV.values()), ids=list(BAD_ARGV))
def test_cli_bad_option_is_an_error_line(argv, tmp_path, capsys):
    from repro.cli import main

    circuit = tmp_path / "rca2.aag"
    with open(circuit, "w") as fh:
        write_aag(ripple_carry_adder(2), fh)
    argv = [
        arg.replace("{aag}", str(circuit)).replace("{tmp}", str(tmp_path))
        for arg in argv
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_bad_workers_env_is_an_error_line(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    circuit = tmp_path / "rca2.aag"
    with open(circuit, "w") as fh:
        write_aag(ripple_carry_adder(2), fh)
    monkeypatch.setenv("REPRO_WORKERS", "abc")
    out = tmp_path / "out.aag"
    argv = ["optimize", str(circuit), "-o", str(out),
            "--flow", "lookahead-only"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: REPRO_WORKERS must be an integer, got 'abc'\n"
    assert not out.exists()  # rejected before any work
