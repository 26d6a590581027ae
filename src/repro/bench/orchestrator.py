"""Sharded Table 2 benchmark orchestrator.

The full 15-circuit table is about an hour of CPU; running it as one
serial pytest session means any interruption loses everything and no
second machine can help.  This module splits the table into independent
per-circuit × per-flow *jobs* behind a four-step lifecycle, surfaced by
the ``repro bench`` CLI:

``plan``
    Expand the job list into a *manifest*: every circuit's structural
    stats, the Lookahead column's recorded effort options, the flow
    list, and a fingerprint over all of it.  The manifest is the
    contract every later step validates against.
``run --shard K/N``
    Execute shard K of N (jobs ``K-1::N`` of the manifest order) and
    write one atomic result JSON per job.  Jobs whose artifact already
    exists *with the manifest's fingerprint* are skipped — kill a shard
    at any point and rerunning the same command resumes exactly where
    it died; artifacts stamped by a different manifest are stale and
    are recomputed.  Lookahead jobs can be dispatched round-robin to
    one or more running ``repro serve`` daemons (baselines always run
    locally — the daemon refuses flows that never touch the store).
``merge``
    Fold the per-job artifacts into one canonical ``BENCH_table2.json``
    — rows per circuit plus the paper's headline-averages block —
    written deterministically, so a sharded run merges byte-for-byte
    identical to an unsharded one.
``report``
    Render the merged JSON as the Table 2 section of EXPERIMENTS.md
    (markdown table + averages), either to stdout or spliced between
    the ``TABLE2`` markers in the file itself.

Every job artifact and the merged output carry the manifest
fingerprint; nothing from an older plan can leak into a newer table.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..aig import AIG, depth
from .circuits import BENCHMARKS
from .table2 import BASELINES, FLOW_ORDER, effort_options, run_flow_row

MANIFEST_VERSION = 1

Registry = Dict[str, Callable[[], AIG]]


class OrchestratorError(RuntimeError):
    """A manifest/artifact inconsistency the caller must resolve."""


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fingerprint(body: Dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


def _circuit_stats(aig: AIG) -> Dict[str, int]:
    return {
        "pis": aig.num_pis,
        "pos": aig.num_pos,
        "ands": aig.num_ands(),
        "depth": depth(aig),
    }


def plan_manifest(
    circuits: Optional[Sequence[str]] = None,
    flows: Optional[Sequence[str]] = None,
    registry: Optional[Registry] = None,
) -> Dict[str, Any]:
    """Expand the job list and fingerprint it.

    ``circuits``/``flows`` default to the full Table 2 set;
    ``registry`` (name -> generator) defaults to
    :data:`repro.bench.BENCHMARKS` and exists so tests can plan over
    tiny synthetic sets.
    """
    registry = registry if registry is not None else BENCHMARKS
    names = list(circuits) if circuits else list(registry)
    unknown = sorted(set(names) - set(registry))
    if unknown:
        raise OrchestratorError(
            f"unknown circuits: {', '.join(unknown)}; "
            f"available: {', '.join(registry)}"
        )
    flow_names = list(flows) if flows else list(FLOW_ORDER)
    bad_flows = sorted(set(flow_names) - set(FLOW_ORDER))
    if bad_flows:
        raise OrchestratorError(
            f"unknown flows: {', '.join(bad_flows)}; "
            f"available: {', '.join(FLOW_ORDER)}"
        )
    circuit_block: Dict[str, Any] = {}
    for name in names:
        stats = _circuit_stats(registry[name]())
        circuit_block[name] = {
            **stats,
            "lookahead_options": effort_options(stats["ands"]),
        }
    jobs = [
        {"id": f"{name}--{flow}", "circuit": name, "flow": flow}
        for name in names
        for flow in flow_names
    ]
    body = {
        "version": MANIFEST_VERSION,
        "flows": flow_names,
        "circuits": circuit_block,
        "jobs": jobs,
    }
    return {**body, "fingerprint": _fingerprint(body)}


def write_manifest(manifest: Dict[str, Any], path: str) -> None:
    _atomic_write_json(manifest, path)


def load_manifest(path: str) -> Dict[str, Any]:
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise OrchestratorError(
            f"cannot read manifest {path}: {exc.strerror}"
        ) from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise OrchestratorError(
            f"manifest {path} is not JSON: {exc}"
        ) from None
    if not isinstance(manifest, dict):
        raise OrchestratorError(f"manifest {path} is not a JSON object")
    body = {k: v for k, v in manifest.items() if k != "fingerprint"}
    if manifest.get("version") != MANIFEST_VERSION:
        raise OrchestratorError(
            f"manifest {path} has version {manifest.get('version')!r}; "
            f"this build reads version {MANIFEST_VERSION}"
        )
    if manifest.get("fingerprint") != _fingerprint(body):
        raise OrchestratorError(
            f"manifest {path} fingerprint does not match its contents "
            "(file edited or truncated?); re-run `repro bench plan`"
        )
    return manifest


def parse_shard(spec: str) -> Tuple[int, int]:
    """``"K/N"`` -> (K, N), 1-based, validated."""
    try:
        k_text, n_text = spec.split("/", 1)
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise OrchestratorError(
            f"shard spec {spec!r} is not of the form K/N"
        ) from None
    if n < 1 or not 1 <= k <= n:
        raise OrchestratorError(
            f"shard {spec!r} out of range (need 1 <= K <= N)"
        )
    return k, n


def shard_jobs(
    jobs: Sequence[Dict[str, Any]], index: int, count: int
) -> List[Dict[str, Any]]:
    """Shard ``index`` of ``count`` (1-based), round-robin by position.

    Round-robin (rather than contiguous blocks) spreads each circuit's
    four flows — whose costs differ wildly — across shards, so shard
    wall-clocks stay balanced.
    """
    return list(jobs[index - 1 :: count])


def job_artifact_path(jobs_dir: str, job_id: str) -> str:
    return os.path.join(jobs_dir, f"{job_id}.json")


def _atomic_write_json(payload: Dict[str, Any], path: str) -> None:
    """Write-then-rename so a killed shard never leaves a torn artifact."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_artifact(path: str) -> Optional[Dict[str, Any]]:
    """The artifact at ``path``, or None if absent/unreadable.

    An unreadable file is indistinguishable from a shard killed before
    the atomic rename — treating it as missing makes resume redo it.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        return None


def validate_registry(
    manifest: Dict[str, Any], registry: Optional[Registry] = None
) -> None:
    """Fail fast when the circuits on disk drifted from the manifest.

    A manifest records each circuit's structural stats at plan time; if
    a generator changed since, running would silently mix results from
    two different circuits into one table.
    """
    registry = registry if registry is not None else BENCHMARKS
    for name, recorded in manifest["circuits"].items():
        if name not in registry:
            raise OrchestratorError(
                f"manifest circuit {name!r} is not in the registry"
            )
        stats = _circuit_stats(registry[name]())
        want = {k: recorded[k] for k in stats}
        if stats != want:
            raise OrchestratorError(
                f"circuit {name!r} drifted since plan: manifest {want}, "
                f"generator now {stats}; re-run `repro bench plan`"
            )


def run_shard(
    manifest: Dict[str, Any],
    jobs_dir: str,
    shard: Tuple[int, int] = (1, 1),
    registry: Optional[Registry] = None,
    clients: Optional[Sequence[Any]] = None,
    max_jobs: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, int]:
    """Execute one shard of the manifest, artifact-per-job, resumable.

    ``clients`` are :class:`repro.serve.ServeClient` instances; when
    given, Lookahead jobs are spread over them round-robin (by job
    position, so the assignment is deterministic) and baselines run
    locally.  ``max_jobs`` bounds the number of jobs *executed* (not
    skipped) — the fault-injection handle resume tests are built on.

    Returns ``{"run": .., "skipped": .., "stale": ..}``.
    """
    registry = registry if registry is not None else BENCHMARKS
    validate_registry(manifest, registry)
    os.makedirs(jobs_dir, exist_ok=True)
    fingerprint = manifest["fingerprint"]
    jobs = shard_jobs(manifest["jobs"], *shard)
    say = log or (lambda message: None)
    summary = {"run": 0, "skipped": 0, "stale": 0}
    for position, job in enumerate(jobs):
        path = job_artifact_path(jobs_dir, job["id"])
        existing = load_artifact(path)
        if existing is not None:
            if existing.get("fingerprint") == fingerprint:
                summary["skipped"] += 1
                say(f"skip {job['id']} (done)")
                continue
            summary["stale"] += 1
            say(f"redo {job['id']} (stale fingerprint)")
        circuit = manifest["circuits"][job["circuit"]]
        client = None
        if clients and job["flow"] == "Lookahead":
            client = clients[position % len(clients)]
        say(f"run  {job['id']}" + (" (serve)" if client else ""))
        started = time.time()
        row = run_flow_row(
            job["circuit"],
            job["flow"],
            aig=registry[job["circuit"]](),
            client=client,
            lookahead_options=circuit["lookahead_options"],
        )
        artifact = {
            "fingerprint": fingerprint,
            "job": job,
            "row": row,
            "elapsed_s": round(time.time() - started, 3),
            "executor": "serve" if client else "local",
        }
        _atomic_write_json(artifact, path)
        summary["run"] += 1
        if max_jobs is not None and summary["run"] >= max_jobs:
            break
    return summary


def compute_averages(
    rows: Dict[str, Dict[str, Dict[str, Any]]],
    circuit_order: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """The paper's headline block: mean reduction of Lookahead vs each
    baseline (levels, mapped delay) and the mean power ratio.

    Iterates in manifest circuit order so float accumulation is
    deterministic across merges.
    """
    averages: Dict[str, Dict[str, float]] = {}
    for baseline in BASELINES:
        level_red: List[float] = []
        delay_red: List[float] = []
        power_ratio: List[float] = []
        for name in circuit_order:
            flows = rows.get(name, {})
            base, look = flows.get(baseline), flows.get("Lookahead")
            if not base or not look:
                continue
            if base["levels"]:
                level_red.append(1 - look["levels"] / base["levels"])
            if base["delay_ps"]:
                delay_red.append(1 - look["delay_ps"] / base["delay_ps"])
            if base["power_uw"]:
                power_ratio.append(look["power_uw"] / base["power_uw"])
        if not level_red:
            continue
        averages[baseline] = {
            "levels_reduction": sum(level_red) / len(level_red),
            "delay_reduction": sum(delay_red) / len(delay_red),
            "power_ratio": sum(power_ratio) / len(power_ratio),
            "circuits": len(level_red),
        }
    return averages


def merge_results(
    manifest: Dict[str, Any],
    jobs_dir: str,
    allow_partial: bool = False,
) -> Dict[str, Any]:
    """Fold per-job artifacts into the canonical merged table.

    Missing or stale (wrong-fingerprint) artifacts abort the merge with
    the offending job ids unless ``allow_partial`` — a partial table is
    only ever an explicit choice.
    """
    fingerprint = manifest["fingerprint"]
    rows: Dict[str, Dict[str, Dict[str, Any]]] = {}
    missing: List[str] = []
    stale: List[str] = []
    for job in manifest["jobs"]:
        artifact = load_artifact(job_artifact_path(jobs_dir, job["id"]))
        if artifact is None:
            missing.append(job["id"])
            continue
        if artifact.get("fingerprint") != fingerprint:
            stale.append(job["id"])
            continue
        rows.setdefault(job["circuit"], {})[job["flow"]] = artifact["row"]
    if (missing or stale) and not allow_partial:
        problems = []
        if missing:
            problems.append(f"missing: {', '.join(missing)}")
        if stale:
            problems.append(f"stale fingerprint: {', '.join(stale)}")
        raise OrchestratorError(
            "cannot merge an incomplete run (" + "; ".join(problems) + "); "
            "finish the shards or pass --allow-partial"
        )
    circuit_order = list(manifest["circuits"])
    return {
        "version": MANIFEST_VERSION,
        "fingerprint": fingerprint,
        "flows": manifest["flows"],
        "circuit_order": circuit_order,
        "rows": rows,
        "averages": compute_averages(rows, circuit_order),
    }


def write_merged(merged: Dict[str, Any], path: str) -> None:
    """Deterministic serialization: a sharded run's merge is
    byte-for-byte the unsharded run's."""
    _atomic_write_json(merged, path)


def load_merged(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


# -- report -------------------------------------------------------------------

TABLE2_BEGIN = "<!-- TABLE2:BEGIN (generated by `repro bench report`) -->"
TABLE2_END = "<!-- TABLE2:END -->"


def _fmt_cell(row: Optional[Dict[str, Any]]) -> str:
    if row is None:
        return "—"
    return (
        f"{row['gates']}/{row['levels']}/"
        f"{row['delay_ps']:.0f}/{row['power_uw']:.0f}"
    )


def render_report(merged: Dict[str, Any]) -> str:
    """The merged table as the Table 2 markdown section."""
    flows = merged["flows"]
    lines = [
        "Per flow: gates / levels / delay (ps) / power (µW @1 GHz).",
        "",
        "| circuit | " + " | ".join(flows) + " |",
        "|---" * (len(flows) + 1) + "|",
    ]
    for name in merged["circuit_order"]:
        cells = [
            _fmt_cell(merged["rows"].get(name, {}).get(flow))
            for flow in flows
        ]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    averages = merged["averages"]
    if averages:
        lines += [
            "",
            "Average reduction of Lookahead vs baselines "
            "(paper: levels −40 % / −56 % / −22 %, "
            "delay −21 % / −56 % / −10 %, power vs DC +10 %):",
            "",
        ]
        def pct(reduction: float) -> str:
            sign = "−" if reduction >= 0 else "+"
            return f"{sign}{abs(100 * reduction):.1f} %"

        for baseline in BASELINES:
            avg = averages.get(baseline)
            if avg is None:
                continue
            lines.append(
                f"* vs {baseline}: levels "
                f"{pct(avg['levels_reduction'])}, delay "
                f"{pct(avg['delay_reduction'])}, power "
                f"×{avg['power_ratio']:.2f} "
                f"({avg['circuits']} circuits)"
            )
    return "\n".join(lines) + "\n"


def update_experiments(path: str, merged: Dict[str, Any]) -> None:
    """Splice the rendered table between the TABLE2 markers in
    EXPERIMENTS.md (which must already contain them)."""
    with open(path) as fh:
        text = fh.read()
    begin = text.find(TABLE2_BEGIN)
    end = text.find(TABLE2_END)
    if begin < 0 or end < 0 or end < begin:
        raise OrchestratorError(
            f"{path} is missing the {TABLE2_BEGIN!r}/{TABLE2_END!r} markers"
        )
    head = text[: begin + len(TABLE2_BEGIN)]
    tail = text[end:]
    with open(path, "w") as fh:
        fh.write(head + "\n" + render_report(merged) + tail)
