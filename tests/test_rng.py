import numpy as np
import pytest

from gerk.rng import RngStream

MASK = (1 << 64) - 1


def reference_mix(z):
    # independent transcription of the documented finalizer
    z = z & MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def reference_stream(seed, stream, count):
    gamma = 0x9E3779B97F4A7C15
    key = reference_mix((reference_mix(seed) + gamma * stream) & MASK)
    return [reference_mix((key + gamma * (k + 1)) & MASK) for k in range(count)]


def test_words_match_documented_algorithm():
    for seed, stream in [(0, 0), (1, 0), (123456789, 7), (2**63, 2)]:
        rng = RngStream(seed, stream)
        got = [rng.next_u64() for _ in range(50)]
        assert got == reference_stream(seed, stream, 50)


def test_same_seed_same_sequence():
    a = RngStream(42)
    b = RngStream(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_streams_differ():
    a = RngStream(42, stream=0)
    b = RngStream(42, stream=1)
    assert [a.next_u64() for _ in range(20)] != [b.next_u64() for _ in range(20)]


def test_batch_matches_scalar_draws():
    a = RngStream(9, 3)
    b = RngStream(9, 3)
    batch = a.random_array(257)
    scalars = np.array([b.random() for _ in range(257)])
    assert np.array_equal(batch, scalars)
    # continuing after a batch stays aligned
    assert a.random() == b.random()


def test_uniform_range_and_mean():
    u = RngStream(5).random_array(20000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_moments():
    g = RngStream(17).normal_array(40000)
    assert abs(g.mean()) < 0.02
    assert abs(g.std() - 1.0) < 0.02


def test_normal_scalar_equals_array_path():
    a = RngStream(3)
    b = RngStream(3)
    xs = [a.normal() for _ in range(10)]
    ys = [float(b.normal_array(1)[0]) for _ in range(10)]
    assert xs == ys


def test_complex_normal_variance():
    z = RngStream(23).complex_normal_array(40000)
    # unit total variance, split evenly between parts
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    assert abs(z.real.var() - 0.5) < 0.02


def test_signs_values():
    s = RngStream(2).signs(5000)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.05


def test_choice_without_replacement():
    rng = RngStream(8)
    for _ in range(200):
        sel = rng.choice_without_replacement(12, 5)
        assert len(sel) == 5
        assert len(set(sel.tolist())) == 5
        assert sorted(sel.tolist()) == sel.tolist()
        assert sel.min() >= 0 and sel.max() < 12
    # every index reachable
    seen = set()
    for _ in range(300):
        seen.update(rng.choice_without_replacement(6, 2).tolist())
    assert seen == set(range(6))


def test_choice_bounds():
    rng = RngStream(1)
    assert rng.choice_without_replacement(4, 0).size == 0
    assert sorted(rng.choice_without_replacement(4, 4).tolist()) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        rng.choice_without_replacement(3, 4)


def test_uniform_array_interval():
    u = RngStream(4).uniform_array(2.0, 5.0, 1000)
    assert u.min() >= 2.0 and u.max() < 5.0


def test_gaussian_array_needs_a_known_field():
    with pytest.raises(ValueError, match="unknown field 'quaternion'"):
        RngStream(0).gaussian_array(3, "quaternion")
    assert RngStream(0).gaussian_array(3, "complex").dtype == np.complex128  # positive control
