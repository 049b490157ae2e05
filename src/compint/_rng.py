"""Deterministic random-number streams.

Every random draw in the package comes from a Philox counter-based generator
keyed by a blake2s digest of (seed, purpose tag, index).  Independent purposes
and independent sample indices get independent streams, so results are a pure
function of (parameters, seed) and cannot depend on execution order or on how
work is split across threads.

Loops that draw one stream per sample index use `indexed_streams`, which
serves every index from one generator re-keyed in place: the draws are those
of `stream(seed, *tags, i)`, without building a Philox and a Generator each.
"""
from __future__ import annotations

import hashlib
import struct

import numpy as np

_U64 = (1 << 64) - 1


def _update(h, tag) -> None:
    if isinstance(tag, str):
        raw = tag.encode("utf-8")
        h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
    else:
        h.update(b"i" + (int(tag) & _U64).to_bytes(8, "little"))


def _hasher(seed: int, tags: tuple):
    h = hashlib.blake2s(digest_size=16)
    h.update((int(seed) & _U64).to_bytes(8, "little"))
    for tag in tags:
        _update(h, tag)
    return h


def derive_seed(seed: int, *tags) -> int:
    """64-bit sub-seed for (seed, *tags); tags are strings or integers."""
    return int.from_bytes(_hasher(seed, tags).digest()[:8], "little")


def stream(seed: int, *tags) -> np.random.Generator:
    """Independent Generator for (seed, *tags)."""
    key = np.frombuffer(_hasher(seed, tags).digest(), dtype="<u8")
    return np.random.Generator(np.random.Philox(key=key))


def indexed_streams(seed: int, *tags):
    """rekey(i) -> a Generator in the state of stream(seed, *tags, i).

    The digest of (seed, *tags) is taken once and extended by each index.
    Every call returns the same Generator, its Philox reset to the new key
    with counter 0, an empty output buffer and no buffered 32-bit half-word,
    exactly as a fresh Philox(key=...) starts.  A Generator returned earlier
    is therefore re-keyed too: draw from the latest one only.
    """
    prefix = _hasher(seed, tags)
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    # Python ints, not arrays: the state setter reads them several times faster.
    keyed = {"counter": (0, 0, 0, 0), "key": (0, 0)}
    fresh = {"bit_generator": "Philox", "state": keyed, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(index: int) -> np.random.Generator:
        h = prefix.copy()
        _update(h, index)
        keyed["key"] = struct.unpack("<2Q", h.digest())
        bit_generator.state = fresh
        return generator

    return rekey
