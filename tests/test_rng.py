import numpy as np

from compint._rng import _digest, derive_seed, stream


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


def test_stream_draws_match_philox_keyed_by_digest():
    # stream() is Philox(key=digest): every draw method the package uses must
    # match a Philox keyed by the digest of (seed, tags), over many pairs.
    rng = np.random.default_rng(12)
    draws = (
        lambda g: g.uniform(0.0, 2.0 * np.pi, 7),
        lambda g: g.standard_normal((3, 5)),
        lambda g: g.normal(0.0, 0.01, 9),
        lambda g: g.integers(0, 1000, size=11),
        lambda g: g.integers(1, 5),
        lambda g: g.choice(64, size=4, replace=False),
    )
    for i in range(200):
        seed = int(rng.integers(0, 2 ** 63))
        tags = (("sweep-vector", i), ("eta-block", i % 7), ("delay-schedule",), (i,))[i % 4]
        key = np.frombuffer(_digest(seed, tags), dtype="<u8")
        ours = stream(seed, *tags)
        reference = np.random.Generator(np.random.Philox(key=key))
        for draw in draws:
            np.testing.assert_array_equal(draw(ours), draw(reference))


def test_stream_draws_are_pinned():
    # literal draws, so that a numpy release that changed Philox or a draw
    # method, or a change to the key derivation, cannot pass unseen
    assert stream(0, "delay-schedule").random(3).tolist() == [
        0.5073142583397319, 0.2780126032416119, 0.713479343750551]
    assert stream(3, "eta-block", 0).random(3).tolist() == [
        0.5868450561804665, 0.2510182441954788, 0.7665303592359292]
    assert stream(2 ** 64 - 1, "sweep-vector", 99).integers(0, 2 ** 62, 2).tolist() == [
        1264970310332499490, 2465239165357812409]
    assert derive_seed(0, "sweep-schedule", 20, 3) == 8275294608365761628
