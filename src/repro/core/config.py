"""One definition of the lookahead optimizer's options.

:class:`LookaheadConfig` names every option that can change what the
optimizer returns: each field carries its default, ``__post_init__`` is
the only validation, :meth:`~LookaheadConfig.key` is the identity job
keys derive from, and ``to_payload`` / ``from_payload`` are the JSON a
``repro serve`` job carries.  Arguments that never change the result —
workers, cone cache, result store and per-round verification — stay
runtime arguments of the optimizer.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from .area_recovery import AREA_EFFORTS

SPCF_TIERS = ("auto", "overapprox", "signature")
"""Admissible ``spcf_tier`` values (see :class:`LookaheadConfig`)."""

WALK_MODES = ("target", "full")
"""Admissible critical-walk strategies for ``walk_modes``."""

FLOW_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "lookahead": {"max_rounds": 16, "max_outputs_per_round": 8},
    "lookahead-only": {"max_rounds": 12},
}
"""Per-flow overrides of the field defaults: the full flow runs up to 16
rounds of at most 8 outputs per optimize call, the bare optimizer up to
12 rounds over every critical output."""

_PAYLOAD_NAMES = {"arrival_times": "arrivals"}
"""Payload keys that differ from their field names."""


def validate_walk_modes(walk_modes) -> Tuple[str, ...]:
    """Validate a walk-mode sequence; returns it as a tuple."""
    if isinstance(walk_modes, str) or not isinstance(
        walk_modes, (list, tuple)
    ) or not walk_modes:
        raise ValueError(
            "walk_modes must be a non-empty list of mode names"
        )
    unknown_modes = [m for m in walk_modes if m not in WALK_MODES]
    if unknown_modes:
        raise ValueError(
            f"unknown walk modes {unknown_modes!r}; "
            f"expected a subset of {WALK_MODES}"
        )
    return tuple(walk_modes)


def positive_int(name: str, value) -> int:
    """``value`` if it is an integer >= 1 (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def _choice(label: str, value, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(
            f"unknown {label} {value!r}; expected one of {choices}"
        )


def _arrival_map(arrivals) -> Optional[Dict[str, int]]:
    """A clean copy of an arrival map; an empty map means unit delay."""
    if arrivals is None:
        return None
    if not isinstance(arrivals, Mapping):
        raise ValueError(
            f"arrival times must be a {{name: int}} map, got {arrivals!r}"
        )
    clean: Dict[str, int] = {}
    for name, t in arrivals.items():
        if not isinstance(name, str):
            raise ValueError(f"arrival name {name!r} is not a string")
        if isinstance(t, bool) or not isinstance(t, int):
            raise ValueError(
                f"arrival time for {name!r} must be an integer, got {t!r}"
            )
        clean[name] = t
    return clean or None


@dataclass(frozen=True)
class LookaheadConfig:
    """Every option that can change what the optimizer returns.

    ``max_rounds`` bounds the decomposition rounds per walk and
    ``max_outputs_per_round`` the critical outputs one round decomposes
    (``None``: all of them).  ``sim_width`` and ``seed`` drive the
    random simulation behind signatures.  ``use_rules`` applies the
    implication rules (Sec. 3.4) when reconstructing.  ``walk_modes``
    are the critical-walk strategies, each run as its own round
    sequence; the best result wins.

    ``spcf_tier`` selects how SPCFs are evaluated.  'auto' picks the
    function domain by PI count — exhaustive truth tables up to 12 PIs,
    BDDs up to 26, simulation signatures beyond (see
    :func:`repro.core.lookahead.spcf_domain`); 'overapprox' swaps the
    truth-table DP for the node-based over-approximation; 'signature'
    forces the timed-simulation estimate, and with it the signature
    domain, everywhere.  ``area_recovery`` toggles the post-round
    area-recovery pipeline and ``area_effort`` ('low'/'medium'/'high')
    sets how hard it works.

    ``arrival_times`` maps PI names to integer prescribed arrival times:
    criticality, SPCFs, reconstruction trees and the acceptance metric
    then follow completion times instead of logic depth.  ``None`` (or
    an empty map) is the unit-delay model.
    """

    max_rounds: int = 4
    max_outputs_per_round: Optional[int] = None
    sim_width: int = 1024
    seed: int = 0
    use_rules: bool = True
    walk_modes: Tuple[str, ...] = WALK_MODES
    spcf_tier: str = "auto"
    area_recovery: bool = True
    area_effort: str = "medium"
    arrival_times: Optional[Dict[str, int]] = None

    def __post_init__(self) -> None:
        positive_int("max_rounds", self.max_rounds)
        if self.max_outputs_per_round is not None:
            positive_int("max_outputs_per_round", self.max_outputs_per_round)
        positive_int("sim_width", self.sim_width)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        _choice("SPCF tier", self.spcf_tier, SPCF_TIERS)
        _choice("area effort", self.area_effort, AREA_EFFORTS)
        normalized = {
            "use_rules": bool(self.use_rules),
            "area_recovery": bool(self.area_recovery),
            "walk_modes": validate_walk_modes(self.walk_modes),
            "arrival_times": _arrival_map(self.arrival_times),
        }
        for name, value in normalized.items():
            object.__setattr__(self, name, value)

    def key(self) -> Tuple:
        """Hashable identity: configs with equal keys give equal output."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "arrival_times" and value is not None:
                value = tuple(sorted(value.items()))
            out.append(value)
        return tuple(out)

    def __hash__(self) -> int:
        return hash(self.key())

    def to_payload(self) -> Dict[str, Any]:
        """The config as a JSON-compatible options dict (unset = omitted)."""
        payload: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = list(value)
            payload[_PAYLOAD_NAMES.get(f.name, f.name)] = copy.deepcopy(value)
        return payload

    @classmethod
    def payload_keys(cls) -> Dict[str, str]:
        """Payload key -> field name, for every field."""
        return {_PAYLOAD_NAMES.get(f.name, f.name): f.name
                for f in fields(cls)}

    @classmethod
    def from_payload(
        cls,
        payload: Optional[Mapping],
        defaults: Optional[Mapping] = None,
    ) -> "LookaheadConfig":
        """Inverse of :meth:`to_payload`, over optional field ``defaults``.

        A ``null`` value means the key's default, and unknown keys are
        errors: a typo'd option silently doing nothing is how a client
        ends up benchmarking the wrong flow.  The payload spells "no
        arrivals" as an absent key rather than an empty map.
        """
        names = cls.payload_keys()
        payload = dict(payload or {})
        unknown = sorted(str(key) for key in set(payload) - set(names))
        if unknown:
            raise ValueError(f"unknown options: {', '.join(unknown)}")
        if payload.get("arrivals") == {}:
            raise ValueError("arrivals must be a non-empty {name: int} map")
        options = dict(defaults or {})
        options.update(
            (names[key], value)
            for key, value in payload.items()
            if value is not None
        )
        return cls(**options)
