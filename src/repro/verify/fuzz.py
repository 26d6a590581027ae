"""The differential fuzz driver: generate, drive, check, shrink, record.

A fuzz run is reproducible from its seed: case ``i`` derives its own
``random.Random(f"{seed}:{i}")``, generates a circuit + arrival map +
optimizer config, and evaluates the :mod:`~repro.verify.invariants`
registry against it (expensive lanes — parallel workers, the full flow —
run on a stride so the budget goes to coverage, not process spawns).

On the first failure the driver ddmin-shrinks the circuit against that
single invariant, writes a regression artifact pair —
``fuzz_<invariant>_s<seed>_c<case>.aag`` plus a ``.json`` sidecar with
the config and failure detail — and stops.  ``tests/regressions`` replays
every checked-in artifact on each test run, so a bug found once can never
quietly return.

Progress and outcomes land in :mod:`repro.perf` under ``verify.*``.
"""

from __future__ import annotations

import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import perf
from ..aig import AIG, read_aag, write_aag
from .invariants import Case, EXPENSIVE, INVARIANTS, run_invariant
from .random_circuits import random_aig, random_arrival_map, random_config
from .shrink import shrink_aig


@dataclass
class FuzzFailure:
    """One reproduced invariant violation, shrunk and recorded."""

    invariant: str
    detail: str
    seed: int
    case_index: int
    config: Dict
    arrival_times: Optional[Dict[str, int]]
    circuit: AIG
    artifact_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of a fuzz run."""

    seed: int
    cases: int = 0
    checks: int = 0
    elapsed: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.failures)} FAILURE(S)"
        lines = [
            f"fuzz seed={self.seed}: {self.cases} cases, "
            f"{self.checks} checks in {self.elapsed:.1f}s — {status}"
        ]
        for f in self.failures:
            lines.append(
                f"  {f.invariant} @ case {f.case_index}: {f.detail}"
            )
            if f.artifact_path:
                lines.append(f"    artifact: {f.artifact_path}")
        return "\n".join(lines)


def make_case(seed: int, index: int) -> Case:
    """The deterministic fuzz case ``(seed, index)``."""
    rng = random.Random(f"{seed}:{index}")
    aig = random_aig(rng)
    return Case(
        aig=aig,
        config=random_config(rng),
        arrival_times=random_arrival_map(rng, aig),
    )


def write_artifact(failure: FuzzFailure, out_dir: str) -> str:
    """Write the shrunk circuit + metadata; returns the ``.json`` path."""
    os.makedirs(out_dir, exist_ok=True)
    stem = (
        f"fuzz_{failure.invariant}_s{failure.seed}_c{failure.case_index}"
    )
    aag_path = os.path.join(out_dir, stem + ".aag")
    with open(aag_path, "w") as fh:
        write_aag(failure.circuit, fh)
    meta = {
        "invariant": failure.invariant,
        "circuit": stem + ".aag",
        "config": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in failure.config.items()
        },
        "arrival_times": failure.arrival_times,
        "seed": failure.seed,
        "case_index": failure.case_index,
        "detail": failure.detail,
    }
    json_path = os.path.join(out_dir, stem + ".json")
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return json_path


def load_artifact(json_path: str) -> Tuple[Case, str]:
    """Rebuild the :class:`Case` recorded in an artifact sidecar."""
    with open(json_path) as fh:
        meta = json.load(fh)
    base = os.path.dirname(json_path)
    with open(os.path.join(base, meta["circuit"])) as fh:
        aig = read_aag(fh)
    config = dict(meta.get("config") or {})
    if "walk_modes" in config:
        config["walk_modes"] = tuple(config["walk_modes"])
    return Case(
        aig=aig,
        config=config,
        arrival_times=meta.get("arrival_times"),
    ), meta["invariant"]


def replay_artifact(json_path: str) -> Optional[str]:
    """Re-run an artifact's invariant; None when the bug stays fixed."""
    case, invariant = load_artifact(json_path)
    return run_invariant(invariant, case)


def resolve_checks(checks: Optional[Sequence[str]] = None) -> List[str]:
    """The invariant names to run (default: all registered).

    Raises ``ValueError`` naming every unknown name.
    """
    names = list(checks) if checks else list(INVARIANTS)
    unknown = [n for n in names if n not in INVARIANTS]
    if unknown:
        raise ValueError(
            f"unknown invariant(s) {unknown}; known: {sorted(INVARIANTS)}"
        )
    return names


def fuzz(
    seed: int = 0,
    budget_s: float = 60.0,
    max_cases: Optional[int] = None,
    checks: Optional[Sequence[str]] = None,
    artifact_dir: Optional[str] = None,
    shrink: bool = True,
    keep_going: bool = False,
) -> FuzzReport:
    """Run the differential fuzzer for ``budget_s`` seconds.

    ``checks`` restricts the invariant set (default: all registered).
    By default the run stops at (and shrinks) the first failure; with
    ``keep_going`` it records every failing case and shrinks each.
    """
    names = resolve_checks(checks)
    report = FuzzReport(seed=seed)
    deadline = time.monotonic() + budget_s
    start = time.monotonic()
    index = 0
    while time.monotonic() < deadline:
        if max_cases is not None and index >= max_cases:
            break
        case = make_case(seed, index)
        perf.incr("verify.fuzz.cases")
        report.cases += 1
        for name in names:
            stride = EXPENSIVE.get(name)
            if stride and index % stride != 0:
                continue
            perf.incr(f"verify.fuzz.check.{name}")
            report.checks += 1
            with perf.timer(f"verify.check.{name}"):
                detail = run_invariant(name, case)
            if detail is None:
                continue
            perf.incr("verify.fuzz.failures")
            failure = FuzzFailure(
                invariant=name,
                detail=detail,
                seed=seed,
                case_index=index,
                config=case.config,
                arrival_times=case.arrival_times,
                circuit=case.aig,
            )
            if shrink:
                with perf.timer("verify.shrink"):
                    failure.circuit = shrink_aig(
                        case.aig,
                        lambda c: run_invariant(
                            name,
                            Case(c, case.config, case.arrival_times),
                        )
                        is not None,
                    )
            if artifact_dir:
                failure.artifact_path = write_artifact(
                    failure, artifact_dir
                )
            report.failures.append(failure)
            if not keep_going:
                report.elapsed = time.monotonic() - start
                return report
        index += 1
    report.elapsed = time.monotonic() - start
    return report


def dump_aig(aig: AIG) -> str:
    """ASCII-AIGER text of a circuit (convenience for reports/tests)."""
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()
