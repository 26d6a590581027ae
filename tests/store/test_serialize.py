"""The versioned key/payload codec of the result store."""

from __future__ import annotations

import json

import pytest

from repro.store import (
    PAYLOAD_VERSION,
    StoreDecodeError,
    dumps,
    encode_key,
    loads,
)


class TestKeys:
    def test_roundtrip_determinism(self):
        key = (123, "tt", "exact", 1024, 0, ("unit",), "auto")
        assert encode_key(key) == encode_key(
            (123, "tt", "exact", 1024, 0, ("unit",), "auto")
        )

    def test_injectivity(self):
        # Every pair of these structurally distinct keys must encode
        # differently — including the classic int/str/bool traps.
        keys = [
            1, "1", True, False, None, 1.0, (1,), [1], (1, 2), ((1,), 2),
            (1, (2,)), ("a", "b"), ("ab",), ("a", "b", ""), ("", "ab"),
            (), [], ("1",), (None,), (True,), 2 ** 70, -(2 ** 70),
        ]
        encodings = [encode_key(k) for k in keys]
        assert len(set(encodings)) == len(encodings)

    def test_rejects_unsupported(self):
        with pytest.raises(TypeError):
            encode_key({1: 2})


class TestPayloads:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            ("tt", (1 << 200) + 7, 9),          # huge truth-table mask
            ("sim", 0xDEADBEEF),
            [("tt", 5, 2), ("tt", 9, 2)],
            {"entries": [1, 2], "meta": ("a", 1)},
            [1, [2, (3, (4,))]],
            [],
            (),
        ],
    )
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_tuples_stay_tuples(self):
        out = loads(dumps(("tt", 3, 2)))
        assert isinstance(out, tuple)
        inner = loads(dumps([("a", 1)]))
        assert isinstance(inner, list) and isinstance(inner[0], tuple)

    def test_garbage_raises(self):
        for junk in (b"", b"garbage", b"\x00\xff", b"{}", b"[1,2,3]"):
            with pytest.raises(StoreDecodeError):
                loads(junk)

    def test_foreign_version_raises(self):
        body = json.dumps([PAYLOAD_VERSION + 1, {"x": 1}]).encode()
        with pytest.raises(StoreDecodeError):
            loads(body)

    def test_rejects_unencodable(self):
        with pytest.raises(TypeError):
            dumps(object())
        with pytest.raises(TypeError):
            dumps({1: "non-str key"})
