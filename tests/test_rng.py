import sys
import threading

import numpy as np
import pytest

from superconc import rng

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**70 + 3, 2**200 + 1]
STREAMS = [0, 1, 10**6, 2**31, 2**32 - 1]


def seed_sequence_key(seed, stream):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return ss.generate_state(2, np.uint64)


def reference_rows(seed, rows, cols, offset):
    return np.stack([rng.stream_generator(seed, offset + i).standard_normal(cols)
                     for i in range(rows)])


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_keys_match_seed_sequence(seed):
    keys = rng.stream_keys(seed, STREAMS)
    assert keys.dtype == np.uint64 and keys.shape == (len(STREAMS), 2)
    for stream, key in zip(STREAMS, keys):
        assert np.array_equal(key, seed_sequence_key(seed, stream))


@pytest.mark.parametrize("seed", [0, 2**70 + 3])
def test_stream_keys_multiword_streams(seed):
    streams = [5, 2**32, 2**40 + 7, 2**64 + 1, 2**32 - 1]
    keys = rng.stream_keys(seed, np.array(streams, dtype=object))
    for stream, key in zip(streams, keys):
        assert np.array_equal(key, seed_sequence_key(seed, stream))


def test_stream_keys_accept_numpy_seed_and_empty_streams():
    assert np.array_equal(rng.stream_keys(np.int64(7), [3])[0], seed_sequence_key(7, 3))
    assert rng.stream_keys(7, []).shape == (0, 2)


@pytest.mark.parametrize("seed, streams", [(-1, [0]), (0, [-1]), (0, [3, -2])])
def test_stream_keys_reject_negative(seed, streams):
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=seed, spawn_key=(min(streams),))
    with pytest.raises(ValueError):
        rng.stream_keys(seed, streams)


@pytest.mark.parametrize("seed", [0, 3, 2**33])
@pytest.mark.parametrize("offset", [0, 5, 10**6])
def test_normal_rows_equal_stream_generators(seed, offset):
    got = rng.normal_rows(seed, 40, 17, offset=offset)
    assert np.array_equal(got, reference_rows(seed, 40, 17, offset))


def test_normal_rows_cross_key_blocks():
    rows = rng.KEY_BLOCK + 3
    got = rng.normal_rows(11, rows, 2, offset=rng.KEY_BLOCK - 1)
    assert np.array_equal(got, reference_rows(11, rows, 2, rng.KEY_BLOCK - 1))


def test_generators_equal_stream_generators_for_integers():
    for stream, g in zip(range(7, 12), rng.generators(4, 7, 12)):
        ref = rng.stream_generator(4, stream)
        assert np.array_equal(g.integers(0, 2, size=33), ref.integers(0, 2, size=33))
        assert np.array_equal(g.random(3), ref.random(3))


def test_normal_rows_concurrent_calls_match_serial():
    calls = [(1, 600, 32, 0), (2, 500, 48, 10**6), (1, 700, 16, 300)]
    serial = [rng.normal_rows(*c) for c in calls]
    results = [[None] * len(calls) for _ in range(2)]

    def work(slot):
        for k, c in enumerate(calls):
            results[slot][k] = rng.normal_rows(*c)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        for a, b in zip(got, serial):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**70 + 3])
@pytest.mark.parametrize("start, stop", [(0, 7), (rng.KEY_BLOCK - 3, rng.KEY_BLOCK + 4),
                                         (2**32 - 2, 2**32 + 2)])
def test_first_blocks_equal_stream_generators(seed, start, stop):
    got = rng.first_blocks(seed, start, stop)
    assert got.dtype == np.uint64 and got.shape == (stop - start, 4)
    for s, row in zip(range(start, stop), got):
        assert np.array_equal(row, rng.stream_generator(seed, s).bit_generator.random_raw(4))
    assert rng.first_blocks(seed, start, start).shape == (0, 4)


def test_mulhi_matches_python_integers():
    words = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    a = np.array(words, dtype=np.uint64)
    for b in words:
        assert [int(x) for x in rng.mulhi(a, b)] == [(w * b) >> 64 for w in words]
