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
    with pytest.raises(ValueError):
        rademacher_matrix(RngStream(0), 1, 0)


def test_tag_type_rejected():
    with pytest.raises(TypeError):
        RngStream(0).spawn(3.14)
