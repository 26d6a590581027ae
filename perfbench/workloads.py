"""The three benchmark workloads: inputs, timed passes and output checks.

Every workload is closed-loop and runs in one process.  A workload is
built in three steps the harness (``run.py``) times separately:

* ``setup(seed)`` generates the inputs from the seed and constructs the
  optimizer, or the daemon and its store (this is ``setup_s``);
* ``run_pass(ctx, probe)`` is the timed pass (``wall_s``), returning one
  :class:`Op` per optimize call, flow call or served job;
* ``teardown(ctx)`` stops whatever ``setup`` started.

Each pass starts from cold memos: the process runtime store is dropped,
``GLOBAL_UNSAT_CACHE`` and the worker-side truth-table/DP pools are
cleared, and the optimizer or daemon is fresh.

Checks run after the timed pass and never abort it: a failed check marks
its operation failed, and the harness reports failed over attempted.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.adders import ripple_carry_adder
from repro.aig import AIG, depth, read_aag
from repro.bench import BENCHMARKS
from repro.bench.table2 import GOLDEN_W1, effort_options
from repro.cec import check_equivalence
from repro.core import LookaheadOptimizer
from repro.core import cache as cone_cache
from repro.core.flow import execute_optimize_job, normalize_job_config
from repro.mapping import map_aig, mapped_delay
from repro.sat.portfolio import GLOBAL_UNSAT_CACHE
from repro.serve import ReproDaemon, ServeClient
from repro.store import runtime as store_runtime
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "bench" / "golden_qor.json"
WORK_DIR = ROOT / ".perfbench_work"

CIRCUITS: Dict[str, Callable[[], AIG]] = dict(BENCHMARKS)
CIRCUITS.update({
    "adder8": lambda: ripple_carry_adder(8),
    "adder16": lambda: ripple_carry_adder(16),
    "adder32": lambda: ripple_carry_adder(32),
})


class Op:
    """One timed operation and what its checks found."""

    __slots__ = ("circuit", "latency_s", "input", "output", "accepted",
                 "failures", "meta")

    def __init__(self, circuit: str, latency_s: float, input_aig: AIG,
                 output: Optional[AIG], accepted: Optional[int],
                 meta: Optional[dict] = None) -> None:
        self.circuit = circuit
        self.latency_s = latency_s
        self.input = input_aig
        self.output = output
        self.accepted = accepted  # replacements accepted, where countable
        self.failures: List[str] = []
        self.meta = meta or {}


class Pass:
    """The outcome of one timed pass."""

    def __init__(self, wall_s: float, ops: List[Op]) -> None:
        self.wall_s = wall_s
        self.ops = ops
        self.speed: Optional[float] = None  # set when scaled (calibrate.py)


def cold_memos() -> None:
    """Drop every process-wide memo so the next optimize starts cold."""
    store_runtime.reset()
    GLOBAL_UNSAT_CACHE.clear()
    cone_cache._WORKER_TTS.clear()
    cone_cache._WORKER_DP.clear()


def check_op(op: Op) -> None:
    """Shared checks: an output exists, is equivalent and never deeper."""
    if op.output is None:
        op.failures.append(op.meta.get("error", "no output"))
        return
    if not check_equivalence(op.input, op.output):
        op.failures.append("output not equivalent to input")
    if depth(op.output) > depth(op.input):
        op.failures.append(
            f"output deeper than input ({depth(op.output)} > "
            f"{depth(op.input)})"
        )


def require_work(op: Op) -> None:
    """No-work guard: an input that accepts no replacement measures nothing.

    Such an input (``adder32``: unchanged ripple depth 66 in 0.01s) times
    only the harness, so it is refused wherever it shows up.
    """
    if op.accepted is not None and op.accepted <= 0:
        op.failures.append(
            f"{op.circuit}: no replacement accepted; not a workload input"
        )


def qor(outputs: Dict[str, AIG]) -> Dict[str, float]:
    """Summed output depth, AND count and mapped delay over circuits."""
    return {
        "levels": sum(depth(aig) for aig in outputs.values()),
        "ands": sum(aig.num_ands() for aig in outputs.values()),
        "delay_ps": sum(
            mapped_delay(map_aig(aig)) for aig in outputs.values()
        ),
    }


class ReplacementProbe:
    """Counts the replacements ``LookaheadOptimizer._rebuild`` decides on.

    The windowed round pipeline counts accepted and rejected replacements
    in ``repro.perf``; the BDD round pipeline does not.  Both decide in
    ``_rebuild``, so the probe reads the decision there: it is installed
    for the whole run, traced or not, and costs microseconds per round.
    """

    def __init__(self) -> None:
        self._tracer = Tracer()

    def __enter__(self) -> "ReplacementProbe":
        self._tracer.wrap_method(
            "repro.core.lookahead", "LookaheadOptimizer", "_rebuild",
            "rebuild",
            lambda args, result: (len(result[1]),
                                  len(args[2]) - len(result[1])),
        )
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.restore()

    def totals(self) -> Tuple[int, int]:
        """(accepted, rejected) replacements so far."""
        rows = list(self._tracer.results["rebuild"])
        return sum(a for a, _r in rows), sum(r for _a, r in rows)

    def accepted(self) -> int:
        return self.totals()[0]


# -- rot-cold -----------------------------------------------------------------


class RotCold:
    """One cold ``optimize()`` on ``rot`` at the golden serial effort."""

    name = "rot-cold"
    why = (
        "rot is the reference circuit with pinned golden QoR (depth 30, "
        "2369 ANDs); secondary SAT is most of its time, so walk, round "
        "and SAT changes show here first; conventional opt, BDD, store "
        "and serve do no work"
    )
    circuits = ("rot",)
    workers_in_process = True

    def inputs(self, seed: int) -> List[Tuple[str, AIG]]:
        # The reference circuit is fixed by its golden record; the seed
        # has nothing to vary without moving that record.
        return [(name, CIRCUITS[name]()) for name in self.circuits]

    def setup(self, seed: int) -> dict:
        cold_memos()
        return {
            "inputs": self.inputs(seed),
            "optimizer": LookaheadOptimizer(workers=1, **GOLDEN_W1),
        }

    def run_pass(self, ctx: dict, probe: ReplacementProbe) -> Pass:
        (name, aig), = ctx["inputs"]
        accepted0 = probe.accepted()
        start = time.perf_counter()
        out = ctx["optimizer"].optimize(aig)
        elapsed = time.perf_counter() - start
        op = Op(name, elapsed, aig, out, probe.accepted() - accepted0)
        return Pass(elapsed, [op])

    def teardown(self, ctx: dict) -> None:
        ctx["optimizer"].close()

    def check(self, passes: List[Pass]) -> None:
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        for p in passes:
            for op in p.ops:
                check_op(op)
                require_work(op)
                want = golden[op.circuit]
                if op.output is not None and (
                    depth(op.output) != want["depth"]
                    or op.output.num_ands() != want["ands"]
                ):
                    op.failures.append(
                        f"QoR {depth(op.output)}/{op.output.num_ands()} "
                        f"!= golden {want['depth']}/{want['ands']}"
                    )


# -- flow-mix -----------------------------------------------------------------


class FlowMix:
    """The Table 2 Lookahead column, full ``lookahead_flow``, serial."""

    name = "flow-mix"
    why = (
        "the path a repro flow user runs: conventional dc_map_effort_high, "
        "renode and rebuild dominate; adder8 (17 PIs) is the only input on "
        "the BDD round pipeline; secondary SAT is a small share"
    )
    circuits = ("C432", "adder8")
    workers_in_process = True

    def inputs(self, seed: int) -> List[Tuple[str, AIG]]:
        # The seed orders the flow calls; memos are cleared between
        # calls, so the order changes no output.
        names = list(self.circuits)
        random.Random(seed).shuffle(names)
        return [(name, CIRCUITS[name]()) for name in names]

    def setup(self, seed: int) -> dict:
        cold_memos()
        inputs = self.inputs(seed)
        configs = {
            name: normalize_job_config(
                {"flow": "lookahead", **effort_options(aig.num_ands())}
            )
            for name, aig in inputs
        }
        return {"inputs": inputs, "configs": configs}

    def run_pass(self, ctx: dict, probe: ReplacementProbe) -> Pass:
        ops = []
        for name, aig in ctx["inputs"]:
            cold_memos()
            accepted0 = probe.accepted()
            start = time.perf_counter()
            out = execute_optimize_job(aig, ctx["configs"][name], workers=1)
            elapsed = time.perf_counter() - start
            ops.append(Op(name, elapsed, aig, out,
                          probe.accepted() - accepted0))
        return Pass(sum(op.latency_s for op in ops), ops)

    def teardown(self, ctx: dict) -> None:
        pass

    def check(self, passes: List[Pass]) -> None:
        for p in passes:
            for op in p.ops:
                check_op(op)
                require_work(op)


# -- serve-fabric -------------------------------------------------------------


SERVE_MIX = (
    ("sparc_tlu_intctl_flat", 1),
    ("dalu", 3),
    ("C432", 3),
    ("adder16", 4),
)
"""Circuit multiset one serve-fabric pass drains (11 jobs).

The big control fabric is served once: a warm repeat of it would add a
third to the pass for no layer the smaller repeats do not already show
(its warm time is area recovery, like theirs)."""

SERVE_CLIENTS = 2
SERVE_OPTIONS = {"flow": "lookahead-only", **GOLDEN_W1}
CLIENT_TIMEOUT_S = 150.0


def serve_sequence(seed: int, mix=SERVE_MIX) -> List[str]:
    """The seeded job order over a circuit multiset."""
    jobs = [name for name, count in mix for _ in range(count)]
    random.Random(seed).shuffle(jobs)
    return jobs


class ServeFabric:
    """An in-process daemon drained by two closed-loop clients."""

    name = "serve-fabric"
    why = (
        "the only workload through serve, the SQLite store (writes beside "
        "reads) and the worker pool, and the only one with repeated "
        "inputs; area recovery, which store replay never covers, dominates"
    )
    mix = SERVE_MIX
    workers_in_process = False

    def setup(self, seed: int) -> dict:
        cold_memos()
        WORK_DIR.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR)
        by_name: Dict[str, AIG] = {}
        jobs = []
        for name in serve_sequence(seed, self.mix):
            if name not in by_name:
                by_name[name] = CIRCUITS[name]()
            jobs.append((name, by_name[name]))
        daemon = ReproDaemon(store=os.path.join(tmp, "store.db"), runners=1)
        daemon.start()
        return {"inputs": jobs, "daemon": daemon, "tmp": tmp}

    def run_pass(self, ctx: dict, probe: ReplacementProbe) -> Pass:
        daemon = ctx["daemon"]
        jobs = ctx["inputs"]
        lock = threading.Lock()
        cursor = [0]
        done: List[Op] = []

        def client_loop() -> None:
            client = ServeClient(daemon.host, daemon.port,
                                 timeout=CLIENT_TIMEOUT_S)
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(jobs):
                    return
                name, aig = jobs[index]
                start = time.perf_counter()
                meta: dict = {"index": index, "started": start}
                out = None
                try:
                    result = client.submit(aig, options=SERVE_OPTIONS)
                    meta["text"] = result["circuit"]
                    meta["elapsed_s"] = result["elapsed_s"]
                    out = read_aag(io.StringIO(result["circuit"]))
                except Exception as exc:  # counted as a failed job
                    meta["error"] = f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                meta["answered"] = end
                op = Op(name, end - start, aig, out, None, meta)
                with lock:
                    done.append(op)

        threads = [
            threading.Thread(target=client_loop, name=f"perfbench-client-{i}")
            for i in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                # Wake now and then: SpeedSampler ticks run on this thread.
                thread.join(0.05)
        done.sort(key=lambda op: op.meta["index"])
        wall = (max(op.meta["answered"] for op in done)
                - min(op.meta["started"] for op in done))
        mark_cold(done)
        return Pass(wall, done)

    def teardown(self, ctx: dict) -> None:
        ctx["daemon"].stop()
        store_runtime.reset()
        shutil.rmtree(ctx["tmp"], ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another set-up still holds its store there

    def check(self, passes: List[Pass]) -> None:
        for p in passes:
            first = {op.circuit: op for op in p.ops if op.meta.get("cold")}
            for op in p.ops:
                cold = first.get(op.circuit)
                if op is cold or op.output is None:
                    check_op(op)
                    if (op.output is not None
                            and depth(op.output) >= depth(op.input)):
                        # A served answer carries no replacement count;
                        # an unchanged depth is the visible no-work sign.
                        op.failures.append(f"{op.circuit}: no depth gain")
                elif cold is None or op.meta["text"] != cold.meta.get("text"):
                    op.failures.append(
                        f"{op.circuit}: warm answer differs from cold"
                    )


def mark_cold(ops: List[Op]) -> None:
    """Flag each circuit's first-served job (the one that filled the store).

    One runner serves jobs one at a time, so the job answered first per
    circuit ran first; sequence order can differ when two clients submit
    at once.
    """
    first: Dict[str, Op] = {}
    for op in sorted(ops, key=lambda op: op.meta["answered"]):
        first.setdefault(op.circuit, op)
    for op in first.values():
        op.meta["cold"] = True


WORKLOADS = {wl.name: wl for wl in (RotCold(), FlowMix(), ServeFabric())}
