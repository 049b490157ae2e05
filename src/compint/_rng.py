"""Deterministic random-number streams.

Every random draw in the package comes from a Philox counter-based generator,
`numpy.random.Philox(key=...)`, keyed by the 128-bit blake2s digest of (seed,
purpose tag, index).  Independent purposes and independent sample indices get
independent streams, so results are a pure function of (parameters, seed) and
cannot depend on execution order or on how work is split across threads.
"""
from __future__ import annotations

import hashlib

import numpy as np

_U64 = (1 << 64) - 1


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
    """Independent Generator for (seed, *tags): a Philox keyed by their digest."""
    key = np.frombuffer(_digest(seed, tags), dtype="<u8")
    return np.random.Generator(np.random.Philox(key=key))
