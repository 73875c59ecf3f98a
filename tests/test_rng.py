"""Tests for the keyed substreams every random draw comes from."""

import math

import numpy as np

from spdefem import substream, substream_key

TUPLES = [(0, 0, 0, "wiener"), (1, 0, 0, "wiener"), (0, 1, 0, "wiener"),
          (0, 0, 1, "wiener"), (0, 0, 0, "trajectory"),
          (2 ** 64 - 1, 3, 5, "wiener"), (0, 2 ** 40, 2 ** 40, "test")]


def draws(key, size=16):
    seed, sample, step, purpose = key
    return substream(seed, sample, step, purpose).standard_normal(size)


def test_substream_is_sfc64_seeded_with_its_key():
    gen = substream(7, 2, 3, "wiener")
    assert isinstance(gen.bit_generator, np.random.SFC64)
    low, high = (int(word) for word in substream_key(7, 2, 3, "wiener"))
    direct = np.random.Generator(np.random.SFC64(low | high << 64))
    assert direct.standard_normal(32).tobytes() \
        == gen.standard_normal(32).tobytes()


def test_draws_repeat_bit_for_bit_whatever_the_call_order():
    forward = {key: draws(key).tobytes() for key in TUPLES}
    # reversed, and each stream opened twice with others opened between
    for key in reversed(TUPLES):
        assert draws(key).tobytes() == forward[key]
    opened = [(key, substream(*key)) for key in TUPLES * 2]
    for key, gen in reversed(opened):
        assert gen.standard_normal(16).tobytes() == forward[key]


def test_distinct_tuples_give_distinct_streams():
    firsts = [draws(key) for key in TUPLES]
    for i, a in enumerate(firsts):
        for b in firsts[i + 1:]:
            assert not np.any(a == b)
    keys = {substream_key(*key).tobytes() for key in TUPLES}
    assert len(keys) == len(TUPLES)


def test_first_normal_across_substreams_is_standard():
    # Band from theory, fixed before the first run: for N iid N(0, 1)
    # draws the sample mean has SE 1/sqrt(N) and the sample variance SE
    # sqrt(2 / (N - 1)); both must lie within 5 SE of 0 and 1.  With
    # N = 2000 that is |mean| < 0.112 and |var - 1| < 0.158.
    n = 2000
    first = np.array([substream(11, sample, step).standard_normal()
                      for sample in range(n // 40) for step in range(40)])
    assert first.size == n and np.unique(first).size == n
    assert abs(first.mean()) < 5.0 / math.sqrt(n)
    assert abs(first.var(ddof=1) - 1.0) < 5.0 * math.sqrt(2.0 / (n - 1))
