import sys
import threading

import numpy as np
import pytest

from superconc import rng

EDGE_STREAMS = [0, 4095, 4096, 2**40, 2**64 - 1]


def reference(seed, stream):
    """numpy's own Philox for the stream: the seed's key, counter (0, stream, 0, 0)."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return np.random.Philox(key=key, counter=np.array([0, stream, 0, 0], dtype=np.uint64))


def reference_rows(seed, rows, cols, offset):
    return np.stack([np.random.Generator(reference(seed, offset + i)).standard_normal(cols)
                     for i in range(rows)])


@pytest.mark.parametrize("seed", [0, 2**70 + 3])
@pytest.mark.parametrize("stream", EDGE_STREAMS)
def test_every_entry_point_draws_numpy_philox_at_the_stream_counter(seed, stream):
    advanced = np.random.Philox(key=reference(seed, 0).state["state"]["key"])
    advanced.advance(stream << 64)
    raw = reference(seed, stream).random_raw(8)
    assert np.array_equal(advanced.random_raw(8), raw)
    assert np.array_equal(rng.stream_generator(seed, stream).bit_generator.random_raw(8), raw)
    [g] = rng.generators(seed, stream, stream + 1)
    assert np.array_equal(g.bit_generator.random_raw(8), raw)
    assert np.array_equal(rng.normal_rows(seed, 1, 9, offset=stream),
                          reference_rows(seed, 1, 9, stream))


@pytest.mark.parametrize("start, stop", [(2**64, 2**64 + 1), (2**64 - 1, 2**64 + 1),
                                         (-1, 0), (-2, 4)])
def test_streams_outside_the_range_raise(start, stop):
    calls = [lambda: list(rng.generators(0, start, stop)),
             lambda: rng.normal_rows(0, stop - start, 2, offset=start),
             lambda: rng.stream_generator(0, start if start < 0 else stop - 1)]
    for call in calls:
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            call()


def test_a_negative_seed_raises():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    calls = [lambda: list(rng.generators(-1, 0, 3)), lambda: rng.normal_rows(-1, 3, 2),
             lambda: rng.stream_generator(-1, 0)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_numpy_seed_and_empty_range():
    seed = np.int64(7)
    assert np.array_equal(rng.stream_generator(seed, 3).bit_generator.random_raw(4),
                          reference(7, 3).random_raw(4))
    assert np.array_equal(rng.normal_rows(seed, 2, 3, offset=3), reference_rows(7, 2, 3, 3))
    assert rng.normal_rows(7, 0, 3, offset=2**64).shape == (0, 3)
    assert list(rng.generators(7, 5, 5)) == []


@pytest.mark.parametrize("seed", [0, 3, 2**33])
@pytest.mark.parametrize("offset", [0, 5, 10**6])
def test_normal_rows_equal_stream_generators(seed, offset):
    got = rng.normal_rows(seed, 40, 17, offset=offset)
    assert np.array_equal(got, reference_rows(seed, 40, 17, offset))


def test_normal_rows_cross_key_blocks():
    rows = 4096 + 3
    got = rng.normal_rows(11, rows, 2, offset=4096 - 1)
    assert np.array_equal(got, reference_rows(11, rows, 2, 4096 - 1))


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
