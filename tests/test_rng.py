"""Seed-derivation contract: same key -> same stream, different key ->
different; and the bulk derivation gives numpy's SeedSequence + PCG64 streams
bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kst.errors import KstError
from kst.rng import DEFAULT_SEED, _Streams, _subseeds, substream


def test_default_seed_value():
    assert DEFAULT_SEED == 42


def test_substream_reproducible():
    a = substream(7, 1, 2).random(16)
    b = substream(7, 1, 2).random(16)
    assert np.array_equal(a, b)


def test_substream_key_sensitivity():
    base = substream(7, 1, 2).random(8)
    for other in [(7, 1, 3), (7, 2, 2), (8, 1, 2), (7, 1), (7, 1, 2, 0)]:
        seed, *key = other
        assert not np.array_equal(base, substream(seed, *key).random(8))


def test_subseed_deterministic_and_nonnegative():
    vals = {_subseeds(11, [(i,)])[0] for i in range(50)}
    assert len(vals) == 50  # distinct keys give distinct seeds
    assert all(v >= 0 for v in vals)
    assert _subseeds(11, [(3,)])[0] == _subseeds(11, [(3,)])[0]


def test_subseed_feeds_default_rng():
    # derived seeds must be valid Generator entropy
    s = _subseeds(0, [(9, 9)])[0]
    np.random.default_rng(s).random()


@pytest.mark.parametrize("bad", [-1, True, 2.5])
def test_bad_seed_rejected(bad):
    with pytest.raises(KstError):
        substream(bad, 0)
    with pytest.raises(KstError):
        _subseeds(bad, [(0,)])[0]


# Entropies of 1 to 5 words: SeedSequence hashes each word by its place, so
# seeds of different word counts must be derived apart, even in one call.
ENTROPIES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64, 2 ** 128 - 1, 2 ** 128, 2 ** 130,
             np.uint64(2 ** 64 - 1), np.int64(2 ** 63 - 1), np.uint32(7)]
KEY_PARTS = st.one_of(st.integers(0, 60), st.sampled_from([2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3]))
# integers(n) bounds: n = 1 draws nothing; 2^31 + 1 rejects about half of
# its first draws, so the rejection loop runs
BOUNDS = [1, 2, 400, 2 ** 31 + 1, 2 ** 32 - 1]


def _numpy_stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@given(
    st.lists(st.one_of(st.sampled_from(ENTROPIES), st.integers(0, 2 ** 140)),
             min_size=1, max_size=4),
    st.lists(st.lists(KEY_PARTS, min_size=1, max_size=3).map(tuple), min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_streams_equal_numpys_generators(seeds, keys, data):
    # every stream of one bulk derivation against numpy's own generator of
    # the same SeedSequence, through a random interleaving of random() and
    # integers(n) on random subsets of the streams in random order: the
    # same values, and each stream ends in the generator's final state,
    # 32-bit buffer included
    streams = _Streams(seeds, keys)
    gens = [_numpy_stream(seed, key) for seed in seeds for key in keys]
    assert len(streams) == len(gens)
    assert [streams.state(i) for i in range(len(gens))] == [g.bit_generator.state for g in gens]
    draws = data.draw(st.lists(st.tuples(st.sampled_from(["random"] + BOUNDS),
                                         st.lists(st.sampled_from(range(len(gens))), unique=True)),
                               max_size=40), label="draws")
    for op, rows in draws:  # distinct streams, in any order
        rows = np.array(rows, dtype=np.intp)
        if op == "random":
            got, want = streams.random(rows), [gens[i].random() for i in rows]
        else:
            got, want = streams.integers(rows, op), [gens[i].integers(op) for i in rows]
        assert got.tolist() == want
    assert [streams.state(i) for i in range(len(gens))] == [g.bit_generator.state for g in gens]


def test_streams_draw_all_at_once_in_any_order():
    # every stream in each draw, in reverse order, so that each draw steps
    # all of them at once and stores each stream's new state in its own row
    seeds, keys = [3, 2 ** 70], [(0,), (1,), (2,)]
    streams = _Streams(seeds, keys)
    gens = [_numpy_stream(seed, key) for seed in seeds for key in keys]
    rows = np.arange(len(gens))[::-1]
    for _ in range(24):  # in step: every stream has drawn as often as the others
        assert streams.random(rows).tolist() == [gens[i].random() for i in rows]
    for n in [400, 400, 1, 2 ** 31 + 1] * 6:
        assert streams.integers(rows, n).tolist() == [gens[i].integers(n) for i in rows]
    assert [streams.state(i) for i in range(len(gens))] == [g.bit_generator.state for g in gens]


@given(st.one_of(st.sampled_from(ENTROPIES), st.integers(0, 2 ** 140)),
       st.lists(st.lists(KEY_PARTS, max_size=3).map(tuple), max_size=5))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_subseeds_equal_numpys_seed_sequence(seed, keys):
    want = [int(np.random.SeedSequence(entropy=seed, spawn_key=key)
                .generate_state(1, dtype=np.uint64)[0] >> 1) for key in keys]
    assert _subseeds(seed, keys) == want
    assert [_subseeds(seed, [key])[0] for key in keys] == want


def test_streams_pinned_values():
    # kst's own outputs, pinned: should a numpy release change what its
    # Generator methods return, the oracle tests above fail and these hold
    streams = _Streams([42, 2 ** 130], [(0,), (3, 2 ** 32)])
    rows = np.arange(4)
    assert streams.random(rows).tolist() == [
        0.9167441575549085, 0.018171847122688378, 0.9411333018007978, 0.00033415171709005875]
    assert streams.integers(rows, 400).tolist() == [232, 331, 40, 86]
    assert streams.integers(rows, 2 ** 31 + 1).tolist() == [
        1956328972, 273130335, 2134406380, 1445872217]
    assert streams.random(rows).tolist() == [
        0.8765925046098457, 0.30598697685713305, 0.18280248208369365, 0.2818373392922894]
    assert (_subseeds(42, [(1, 3)])[0], _subseeds(2 ** 130, [(2, 7, 5)])[0]) == (
        5715983144786893426, 1523414971074224560)


@pytest.mark.parametrize("n", [0, 2 ** 32])
def test_streams_integers_bound(n):
    streams = _Streams([1], [(0,)])
    with pytest.raises(ValueError, match="1 <= n < 2"):
        streams.integers(np.arange(1), n)
    assert streams.state(0) == _numpy_stream(1, (0,)).bit_generator.state
