import numpy as np

from compint._rng import derive_seed, stream


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


def test_streams_independent_of_order():
    forward = [stream(7, "sample", i).standard_normal() for i in range(10)]
    backward = [stream(7, "sample", i).standard_normal() for i in reversed(range(10))]
    np.testing.assert_array_equal(forward, backward[::-1])


def test_derive_seed_range_and_determinism():
    s = derive_seed(3, "schedule", 5)
    assert s == derive_seed(3, "schedule", 5)
    assert 0 <= s < 2 ** 64
    assert s != derive_seed(3, "schedule", 6)

