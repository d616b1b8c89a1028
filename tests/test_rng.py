import numpy as np
import pytest

from rpg.rng import RngStream, rademacher_matrix


def test_same_seed_counter_replays_identically():
    a = RngStream(42, 0)
    b = RngStream(42, 0)
    for _ in range(5):
        assert np.array_equal(a.normal(size=7), b.normal(size=7))


def test_counter_addresses_mid_stream():
    a = RngStream(9, 0)
    first = a.uniform(0, 1, size=4)
    second = a.uniform(0, 1, size=4)
    # Reconstructing at counter=1 skips exactly the first event.
    replay = RngStream(9, 1)
    assert np.array_equal(replay.uniform(0, 1, size=4), second)
    assert not np.array_equal(first, second)


def test_spawn_is_deterministic_and_disjoint():
    root = RngStream(7)
    c1 = root.spawn("rollout")
    c2 = root.spawn("rollout")
    c3 = root.spawn("probes")
    assert c1.seed == c2.seed
    assert c1.seed != c3.seed
    assert np.array_equal(c1.normal(size=8), c2.normal(size=8))
    assert not np.array_equal(RngStream(c1.seed).normal(size=8),
                              RngStream(c3.seed).normal(size=8))


def test_spawn_does_not_disturb_parent():
    a = RngStream(13)
    b = RngStream(13)
    a.spawn("x")
    a.spawn(55)
    assert np.array_equal(a.normal(size=6), b.normal(size=6))


def test_rademacher_codomain():
    v = rademacher_matrix(RngStream(0), 1, 4)
    assert v.shape == (1, 4)
    assert set(np.unique(v)).issubset({-1.0, 1.0})


def test_rademacher_determinism():
    assert np.array_equal(rademacher_matrix(RngStream(3, 5), 1, 16),
                          rademacher_matrix(RngStream(3, 5), 1, 16))


def test_rademacher_mean_bound():
    # Law-of-large-numbers check pinned by the binomial variance bound.
    v = rademacher_matrix(RngStream(2024), 1, 10_000)
    assert abs(float(np.mean(v))) <= 0.05


def test_rademacher_matrix_rows_match_shape():
    m = rademacher_matrix(RngStream(1), 6, 9)
    assert m.shape == (6, 9)
    assert set(np.unique(m)).issubset({-1.0, 1.0})


def test_bad_probe_dimension_rejected():
    """No probe dimension and no probe at all are both refused."""
    for count, n in ((1, 0), (0, 4)):
        with pytest.raises(ValueError):
            rademacher_matrix(RngStream(0), count, n)


def test_tag_type_rejected():
    with pytest.raises(TypeError):
        RngStream(0).spawn(3.14)



@pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 64 - 1])
@pytest.mark.parametrize("counter", [0, 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1])
def test_event_draws_match_a_freshly_built_philox(seed, counter):
    """Each event of a stream draws what a new Philox at its block draws.

    The stream reuses one Philox across events; the events run in an order
    where each follows one that left a part-used buffer or a cached uint32
    behind.
    """
    def fresh(event):
        block = ((counter + event) & (2 ** 64 - 1)) << 64
        return np.random.Generator(np.random.Philox(key=seed, counter=block))

    stream = RngStream(seed, counter)
    assert np.array_equal(stream.integers(0, 9, size=5),
                          fresh(0).integers(0, 9, size=5))
    assert np.array_equal(
        stream.signs((2, 3)),
        2.0 * fresh(1).integers(0, 2, (2, 3)).astype(np.float64) - 1.0)
    assert np.array_equal(stream.normal(size=7, scale=0.5),
                          fresh(2).normal(0.0, 0.5, size=7))
    assert np.array_equal(stream.uniform(-1.0, 1.0, size=3),
                          fresh(3).uniform(-1.0, 1.0, size=3))
    assert np.array_equal(stream.integers(0, 2 ** 40, size=3),
                          fresh(4).integers(0, 2 ** 40, size=3))


@pytest.mark.parametrize("size", [1, 7, (1,), (3, 3), (8, 4), (16, 2),
                                  (5, 3), (2, 3, 5), (0,), (4, 0),
                                  (4, 388), (32, 388)])
def test_signs_are_the_generator_integer_draws_bitwise(size):
    # signs must draw what 2 * Generator.integers(0, 2, size) - 1 on the
    # event's block draws; (4, 388) and (32, 388) are the pointmass probe
    # matrices of the benchmark and of the `rpg train` defaults
    for seed in (0, 1, 12345, 2 ** 64 - 1):
        for counter in (0, 1, 7, 2 ** 63 + 5):
            generator = np.random.Generator(
                np.random.Philox(key=seed, counter=counter << 64))
            want = 2.0 * generator.integers(0, 2, size).astype(np.float64) - 1.0
            stream = RngStream(seed, counter)
            got = stream.signs(size)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert stream.counter == counter + 1
