import numpy as np

from compint._rng import derive_seed, indexed_streams, stream


def test_stream_deterministic():
    a = stream(42, "unit").uniform(size=16)
    b = stream(42, "unit").uniform(size=16)
    np.testing.assert_array_equal(a, b)


def test_stream_tag_independence():
    a = stream(42, "left").uniform(size=16)
    b = stream(42, "right").uniform(size=16)
    assert not np.array_equal(a, b)


def test_stream_seed_sensitivity():
    a = stream(1, "x").uniform(size=16)
    b = stream(2, "x").uniform(size=16)
    assert not np.array_equal(a, b)


def test_integer_tags_distinct_from_strings():
    # the tag encoding is type-prefixed, so 1 and "1" must not collide
    a = stream(0, 1).uniform(size=8)
    b = stream(0, "1").uniform(size=8)
    assert not np.array_equal(a, b)


def test_indexed_streams_independent_of_order():
    forward = [stream(7, "sample", i).standard_normal() for i in range(10)]
    backward = [stream(7, "sample", i).standard_normal() for i in reversed(range(10))]
    np.testing.assert_array_equal(forward, backward[::-1])


def test_derive_seed_range_and_determinism():
    s = derive_seed(3, "schedule", 5)
    assert s == derive_seed(3, "schedule", 5)
    assert 0 <= s < 2 ** 64
    assert s != derive_seed(3, "schedule", 6)


def _draws(rng):
    # choice, then a 32-bit draw that leaves half a word buffered, then
    # 64-bit draws that must not see that half-word
    return [rng.choice(64, size=4, replace=False),
            rng.integers(0, 1000, size=3, dtype=np.uint32),
            rng.standard_normal(5),
            rng.uniform(size=3)]


def test_indexed_streams_match_stream_in_any_order():
    indices = np.random.default_rng(0).permutation(40).tolist() + [0, 2 ** 64 - 1, -1]
    rekey = indexed_streams(11, "eta-sample")
    for i in indices:
        for got, want in zip(_draws(rekey(i)), _draws(stream(11, "eta-sample", i))):
            np.testing.assert_array_equal(got, want)


def test_indexed_streams_clear_a_buffered_half_word():
    rekey = indexed_streams(5, "unit")
    fresh = stream(5, "unit", 3).integers(0, 2 ** 32, size=2, dtype=np.uint32)
    rng = rekey(3)
    rng.integers(0, 2 ** 32, size=1, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    rng = rekey(3)
    assert rng.bit_generator.state["has_uint32"] == 0
    np.testing.assert_array_equal(
        rng.integers(0, 2 ** 32, size=2, dtype=np.uint32), fresh)

