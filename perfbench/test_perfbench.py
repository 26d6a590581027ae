"""The benchmark's own tests (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

The determinism tests drive the real workload classes over smaller
inputs, so they take about a minute on two cores.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from layers import DETERMINISTIC, SPANS, install  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CIRCUITS,
    SERVE_MIX,
    FlowMix,
    Op,
    Pass,
    ReplacementProbe,
    RotCold,
    ServeFabric,
    require_work,
    serve_sequence,
)


def test_serve_sequence_follows_seed():
    assert serve_sequence(3) == serve_sequence(3)
    other = serve_sequence(4)
    assert other != serve_sequence(3)
    assert sorted(other) == sorted(serve_sequence(3))
    assert sorted(other) == sorted(
        name for name, count in SERVE_MIX for _ in range(count)
    )


def test_no_work_input_is_refused():
    # adder32 keeps its ripple depth of 66: no replacement is accepted.
    wl = RotCold()
    wl.circuits = ("adder32",)
    with ReplacementProbe() as probe:
        ctx = wl.setup(0)
        try:
            p = wl.run_pass(ctx, probe)
        finally:
            wl.teardown(ctx)
    (op,) = p.ops
    require_work(op)
    assert op.accepted == 0
    assert any("no replacement accepted" in f for f in op.failures)


def test_warm_answer_must_match_cold():
    aig = CIRCUITS["adder8"]()
    ops = []
    for index, text in enumerate(("a", "a", "b")):
        op = Op("adder8", 0.1, aig, aig.extract(), None,
                {"index": index, "answered": float(index), "text": text})
        ops.append(op)
    ops[0].meta["cold"] = True
    ServeFabric().check([Pass(1.0, ops)])
    assert not ops[1].failures
    assert any("differs from cold" in f for f in ops[2].failures)


def test_wrappers_are_restored():
    import importlib

    def bound():
        seen = {}
        for module, cls, attr, _layer in SPANS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            seen[(module, cls, attr)] = owner.__dict__[attr]
        return seen

    before = bound()
    with Tracer() as tracer:
        install(tracer, in_process=False)
        assert bound() != before
    assert bound() == before


def test_speed_sampler_ticks_and_restores_alarm():
    import signal
    import time

    from calibrate import SpeedSampler

    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as clock:
        end = time.perf_counter() + 0.45
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.ticks) >= 3
    assert 0 < clock.spent_s < clock.span_s
    assert clock.scale > 0


def traced_counters(workload, seed):
    with ReplacementProbe() as probe:
        ctx = workload.setup(seed)
        traced, metrics = run.traced_pass(workload, seed, probe, ctx)
    workload.check([traced])
    assert not [f for op in traced.ops for f in op.failures]
    values = {name: value for name, (value, _unit) in metrics.items()}
    self_s = sum(value for name, value in values.items()
                 if name.endswith(".s") and name != "core.rebuild.s")
    if workload.workers_in_process:
        assert self_s <= traced.wall_s * 1.01
    return {name: values[name] for name in DETERMINISTIC}


def small_workloads():
    rot = RotCold()
    rot.circuits = ("C432",)  # golden under the same serial effort
    flow = FlowMix()
    flow.circuits = ("adder8",)  # the BDD round pipeline
    serve = ServeFabric()
    serve.mix = (("C432", 2), ("adder16", 2))
    return [rot, flow, serve]


@pytest.mark.parametrize("workload", small_workloads(),
                         ids=lambda wl: wl.name)
def test_traced_counters_repeat(workload):
    first = traced_counters(workload, 5)
    assert first["lookahead.replacements.accepted"] > 0
    assert traced_counters(workload, 5) == first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rot-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert out.returncode != 0
    assert out.stdout == ""
