"""Canonical, versioned serialization for store keys and payloads.

Keys and values that reach a persistent backend must round-trip across
processes, Python versions, and repository revisions.  ``pickle`` is
rejected outright (version-fragile, and loading a database is then
arbitrary code execution on a file an attacker may control); instead the
codec here handles exactly the value domain the memo layers use — the
JSON scalars plus *tuples*, which the cache payloads rely on (an SPCF
payload is ``('tt', bits, nvars)`` and must come back as a tuple, not a
list).  Arbitrary-precision ints (truth-table bit masks) are native.

* :func:`encode_key` — injective canonical *text* form of a key.  Keys
  are only ever encoded (lookup is by equality), never decoded, so the
  format optimizes for determinism: two equal keys encode identically in
  every process, and distinct keys (including ``1`` vs ``"1"`` vs
  ``True``) never collide.
* :func:`dumps` / :func:`loads` — tagged-JSON payload codec with an
  explicit format version.  :func:`loads` raises :class:`StoreDecodeError`
  on any malformed or foreign-version payload; backends treat that as a
  cache miss, so stale formats self-invalidate instead of crashing.
"""

from __future__ import annotations

import json
from typing import Any

PAYLOAD_VERSION = 1
"""Bump when the payload encoding changes; old rows then read as misses."""


class StoreDecodeError(ValueError):
    """A stored payload could not be decoded (corrupt or foreign version)."""


# -- keys ---------------------------------------------------------------------


def encode_key(key: Any) -> str:
    """Deterministic injective text encoding of a store key.

    Supports ``None``, ``bool``, ``int``, ``float``, ``str``, and
    arbitrarily nested ``tuple``/``list`` of those.  Every type carries a
    distinct tag and strings are length-prefixed, so no two distinct keys
    share an encoding.
    """
    parts: list = []
    _encode_key(key, parts)
    return "".join(parts)


def _encode_key(key: Any, parts: list) -> None:
    if key is None:
        parts.append("N")
    elif key is True:
        parts.append("T")
    elif key is False:
        parts.append("F")
    elif isinstance(key, int):
        parts.append(f"i{key};")
    elif isinstance(key, float):
        parts.append(f"f{key!r};")
    elif isinstance(key, str):
        parts.append(f"s{len(key)}:")
        parts.append(key)
    elif isinstance(key, tuple):
        parts.append("(")
        for item in key:
            _encode_key(item, parts)
        parts.append(")")
    elif isinstance(key, list):
        parts.append("[")
        for item in key:
            _encode_key(item, parts)
        parts.append("]")
    else:
        raise TypeError(
            f"unsupported store key component: {type(key).__name__}"
        )


# -- payloads -----------------------------------------------------------------

_TUPLE_TAG = "\x00t"  # illegal as a first element of any payload we emit


def _to_jsonable(obj: Any) -> Any:
    if isinstance(obj, tuple):
        return [_TUPLE_TAG] + [_to_jsonable(x) for x in obj]
    if isinstance(obj, list):
        # A plain list is encoded as-is; the tuple tag is reserved, so a
        # user list starting with the tag would be ambiguous — reject it.
        if obj and obj[0] == _TUPLE_TAG:
            raise TypeError("list payloads may not start with the tuple tag")
        return [_to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError("dict payload keys must be strings")
            out[k] = _to_jsonable(v)
        return out
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"unsupported store payload type: {type(obj).__name__}")


def _from_jsonable(obj: Any) -> Any:
    if isinstance(obj, list):
        if obj and obj[0] == _TUPLE_TAG:
            return tuple(_from_jsonable(x) for x in obj[1:])
        return [_from_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _from_jsonable(v) for k, v in obj.items()}
    return obj


def dumps(value: Any) -> bytes:
    """Serialize a payload to a compact, versioned byte string."""
    body = json.dumps(
        [PAYLOAD_VERSION, _to_jsonable(value)],
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return body.encode("utf-8")


def loads(data: bytes) -> Any:
    """Inverse of :func:`dumps`; raises :class:`StoreDecodeError` on junk."""
    try:
        wrapper = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreDecodeError(f"undecodable store payload: {exc}") from None
    if (
        not isinstance(wrapper, list)
        or len(wrapper) != 2
        or wrapper[0] != PAYLOAD_VERSION
    ):
        raise StoreDecodeError(
            f"unsupported store payload version: {wrapper!r:.60}"
        )
    return _from_jsonable(wrapper[1])
