"""Cross-round cone cache as namespace views over :mod:`repro.store`.

Every per-output computation in a lookahead round — the SPCF, the global
node truth tables feeding it, and the reduce/simplify/reconstruct verdict —
is a pure function of the output's fan-in cone plus a handful of optimizer
parameters.  Rounds and `lookahead_flow` iterations revisit mostly-unchanged
circuits, so identical cones recur constantly.  :class:`ConeCache` memoizes
three things across rounds (and, with a persistent store, across
*invocations*):

* **SPCF payloads** per ``(cone fingerprint, domain, sim params, tier)``
  — the chosen Δ's truth table or signature (or, in the BDD domain, just
  Δ), serialized to plain ints so the entry is process-independent;
* **node truth tables** per cone fingerprint (tt mode), shared by the
  Δ-relaxation loop and later rounds;
* **rejected-cone fingerprints**: cones whose decomposition produced no
  accepted replacement under a given configuration are skipped outright in
  later rounds.

:class:`ConeCache` owns no tables of its own anymore: it is three
:class:`repro.store.Namespace` views (``spcf``/``tts``/``rejected``) over
a :class:`repro.store.ResultStore` — a private bounded
:class:`~repro.store.MemoryStore` by default, or any store the optimizer
hands it (e.g. the tiered disk store behind ``--store``), in which case
entries survive the process.  Invalidation is automatic either way: any
structural change to a cone changes its fingerprint (see
``aig.cone_fingerprint``), so stale entries are simply never looked up
again.  Hit and miss counts are reported through :mod:`repro.perf` under
both the legacy ``cache.*`` names and the per-namespace ``store.*`` names.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .. import perf
from ..aig import AIG, cone_fingerprint, node_tts
from ..store import MemoryStore, Namespace, ResultStore
from ..store import runtime as store_runtime
from ..tt import TruthTable

SpcfPayload = Tuple
"""Serialized SPCF: ``('tt', bits, nvars)``, ``('bdd', delta)`` or
``('sim', signature)``."""


_CARRIED = ("spcf", "rejected")
"""The namespaces a walk worker starts from and hands back
(:meth:`ConeCache.export`); ``tts`` stays put, the optimizer never
reads it."""


def _encode_tts(tts: List[TruthTable]) -> list:
    return [(tt.bits, tt.nvars) for tt in tts]


def _decode_tts(payload: list) -> List[TruthTable]:
    return [TruthTable(bits, nvars) for bits, nvars in payload]


class ConeCache:
    """Memo of per-cone lookahead results; a view over a result store."""

    def __init__(
        self, max_entries: int = 4096, store: Optional[ResultStore] = None
    ):
        self.max_entries = max_entries
        if store is None:
            store = MemoryStore(
                default_limit=max_entries,
                limits={
                    "spcf": max_entries,
                    "tts": max_entries,
                    "rejected": max_entries,
                },
            )
        self.store = store
        self._spcf = Namespace(store, "spcf")
        self._tts = Namespace(store, "tts", encode=_encode_tts, decode=_decode_tts)
        self._rejected = Namespace(store, "rejected")

    # -- SPCF payloads -----------------------------------------------------

    def get_spcf(self, key: Tuple) -> Optional[SpcfPayload]:
        payload = self._spcf.get(key)
        perf.incr("cache.spcf.hit" if payload is not None else "cache.spcf.miss")
        return payload

    def put_spcf(self, key: Tuple, payload: SpcfPayload) -> None:
        self._spcf.put(key, payload)

    # -- node truth tables -------------------------------------------------

    def get_node_tts(self, fp: int) -> Optional[List[TruthTable]]:
        tts = self._tts.get(fp)
        perf.incr("cache.tts.hit" if tts is not None else "cache.tts.miss")
        return tts

    def put_node_tts(self, fp: int, tts: List[TruthTable]) -> None:
        self._tts.put(fp, tts)

    # -- rejected cones ----------------------------------------------------

    def is_rejected(self, key: Tuple) -> bool:
        hit = self._rejected.contains(key)
        if hit:
            perf.incr("cache.rejected.hit")
        return hit

    def mark_rejected(self, key: Tuple) -> None:
        self._rejected.put(key, True)

    # -- carrying entries to a pool worker ----------------------------------

    def export(self) -> Optional[Dict[str, List[tuple]]]:
        """Picklable copy of the SPCF and rejected-cone entries.

        ``None`` unless the cache is a process-local :class:`MemoryStore`:
        a worker reaches a persistent store itself, through the runtime
        spec its task carries.
        """
        if not isinstance(self.store, MemoryStore):
            return None
        return self.store.export(_CARRIED)

    def absorb(self, entries: Dict[str, List[tuple]]) -> None:
        """Put the entries of an :meth:`export` (or :meth:`added_since`)."""
        self.store.absorb(entries)

    def added_since(
        self, carried: Dict[str, List[tuple]]
    ) -> Dict[str, List[tuple]]:
        """The entries put since this cache absorbed ``carried``."""
        added = {}
        for ns, items in self.store.export(_CARRIED).items():
            seen = {ekey for ekey, _entry in carried.get(ns, ())}
            added[ns] = [item for item in items if item[0] not in seen]
        return added

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        self._spcf.clear()
        self._tts.clear()
        self._rejected.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "spcf_entries": self._spcf.entries(),
            "tts_entries": self._tts.entries(),
            "rejected_entries": self._rejected.entries(),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"ConeCache(spcf={s['spcf_entries']}, tts={s['tts_entries']}, "
            f"rejected={s['rejected_entries']})"
        )


# -- worker-side node-tts memo -----------------------------------------------
#
# Workers cannot see the parent's ConeCache, so each worker process keeps
# a small identity-preserving pool of tabulated cones.  The pool is a
# plain MemoryStore holding the lists by reference — no codec on the hot
# path.  When the process has a persistent runtime store, misses also
# read through (and tabulations write through) the shared ``tts``
# namespace, the same keyspace ConeCache.put_node_tts populates, so a
# disk-warm run skips tabulation even in fresh worker processes.

_WORKER_POOL = MemoryStore(
    default_limit=store_runtime.MEMORY_LIMITS["worker_tts"],
    limits={"dp": store_runtime.MEMORY_LIMITS["dp"]},
)
_WORKER_TTS = Namespace(_WORKER_POOL, "worker_tts")
_WORKER_DP = Namespace(_WORKER_POOL, "dp")

_MISSING: Any = object()


def node_tts_cached(aig: AIG, fp: Optional[int] = None) -> List[TruthTable]:
    """Process-local memoized ``node_tts`` keyed by cone fingerprint.

    Used inside worker processes (which cannot see the parent's
    :class:`ConeCache`) so the Δ-relaxation loop and repeated tasks on the
    same cone tabulate the cone once per process.
    """
    if fp is None:
        fp = cone_fingerprint(aig, aig.pos)
    tts = _WORKER_TTS.get(fp, _MISSING)
    if tts is _MISSING:
        tts = None
        if store_runtime.is_persistent():
            shared = store_runtime.get_store().namespace(
                "tts", encode=_encode_tts, decode=_decode_tts
            )
            tts = shared.get(fp)
        if tts is None:
            perf.incr("cache.tts.miss")
            tts = node_tts(aig)
            if store_runtime.is_persistent():
                shared.put(fp, tts)
        else:
            perf.incr("cache.tts.hit")
        _WORKER_TTS.put(fp, tts)
    else:
        perf.incr("cache.tts.hit")
    return tts


# -- worker-side SPCF DP-memo pool --------------------------------------------
#
# A (node, required-length) DP entry depends only on the cone structure,
# the node truth tables, and the arrival profile — not on the queried Δ —
# so the same table serves the whole Δ-relaxation loop, every output
# sharing the cone, and later rounds/flow iterations that revisit an
# unchanged cone.  Keyed alongside the ConeCache fingerprints; the memo
# dicts are mutated in place by the DP, so a pool hit resumes exactly
# where the previous query stopped tabulating.  That in-place mutation is
# also why this pool is never persisted: the store hands the exact same
# dict object back on every hit, which only a by-reference memory tier
# can promise.


def dp_memo_cached(
    fp: int, relaxed: bool, num_pis: int, model_key: Tuple = ("unit",)
) -> Dict:
    """Process-local shared SPCF DP memo for one (cone, kind, model).

    ``num_pis`` guards against fingerprint-equal cones embedded in PI
    spaces of different width (truth tables would not be comparable);
    ``model_key`` separates arrival regimes, whose arrival profiles give
    different DP tables for the same structure.
    """
    key = (fp, relaxed, num_pis, model_key)
    memo = _WORKER_DP.get(key, _MISSING)
    if memo is _MISSING:
        perf.incr("cache.dp.miss")
        memo = {}
        _WORKER_DP.put(key, memo)
    else:
        perf.incr("cache.dp.hit")
    return memo
