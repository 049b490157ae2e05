"""Deterministic random-number streams.

Every random draw in the package comes from a Philox counter-based generator
keyed by a blake2s digest of (seed, purpose tag, index).  Independent purposes
and independent sample indices get independent streams, so results are a pure
function of (parameters, seed) and cannot depend on execution order or on how
work is split across threads.
"""
from __future__ import annotations

import functools
import hashlib

import numpy as np

_U64 = (1 << 64) - 1

_ZEROS = np.zeros(4, dtype=np.uint64)
_ZEROS.flags.writeable = False


@functools.cache
def _seed_sequence() -> np.random.SeedSequence:
    """The fixed seed sequence every stream's Philox is built from.

    Philox(key=...) would build a SeedSequence from OS entropy that the key
    then overrides; `stream` sets the key and a zero counter instead, which
    is Philox(key=...)'s start.  It is built on first use, as numpy imports
    np.random only then.
    """
    return np.random.SeedSequence(0)


def _digest(seed: int, tags: tuple) -> bytes:
    h = hashlib.blake2s(digest_size=16)
    h.update((int(seed) & _U64).to_bytes(8, "little"))
    for tag in tags:
        if isinstance(tag, str):
            raw = tag.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        else:
            h.update(b"i" + (int(tag) & _U64).to_bytes(8, "little"))
    return h.digest()


def derive_seed(seed: int, *tags) -> int:
    """64-bit sub-seed for (seed, *tags); tags are strings or integers."""
    return int.from_bytes(_digest(seed, tags)[:8], "little")


def stream(seed: int, *tags) -> np.random.Generator:
    """Independent Generator for (seed, *tags)."""
    bit_generator = np.random.Philox(_seed_sequence())
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": np.frombuffer(_digest(seed, tags), dtype="<u8")},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return np.random.Generator(bit_generator)
