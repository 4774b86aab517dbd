import itertools
import tracemalloc

import numpy as np
import pytest

from gerk.rng import BLOCK, RngStream

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


# ------------------------------------------------------------ blocked draws


def reference_random(rng, size):
    # the unblocked formulas: one whole-array pass over every counter of the draw
    start = rng._counter + 1
    rng._counter += size
    counters = np.arange(start, start + size, dtype=np.uint64)
    z = np.uint64(rng._key) + np.uint64(0x9E3779B97F4A7C15) * counters
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    words = z ^ (z >> np.uint64(31))
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def reference_normal(rng, size):
    u = reference_random(rng, 2 * size)
    r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    return r * np.cos(2.0 * np.pi * u[1::2])


def reference_complex_normal(rng, size):
    g = reference_normal(rng, 2 * size)
    return (g[0::2] + 1j * g[1::2]) / np.sqrt(2.0)


REFERENCES = {
    "random_array": reference_random,
    "normal_array": reference_normal,
    "complex_normal_array": reference_complex_normal,
    "gaussian_array real": reference_normal,
    "gaussian_array complex": reference_complex_normal,
}


@pytest.mark.parametrize("draw", sorted(REFERENCES))
def test_blocked_draws_equal_the_unblocked_formulas(draw):
    half = BLOCK // 2  # normals per block; complex normals take a quarter
    sizes = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5,
             half - 1, half, half + 1, 3 * half + 1, BLOCK // 4 + 1]
    for seed, size in itertools.product([0, 77, 2**63 + 5], sizes):
        got_rng, want_rng = RngStream(seed, 4), RngStream(seed, 4)
        got_rng.skip(seed % 11)
        want_rng.skip(seed % 11)
        name, *field = draw.split()
        got = getattr(got_rng, name)(size, *field)
        want = REFERENCES[draw](want_rng, size)
        assert got.dtype == want.dtype and got.shape == (size,)
        assert got.tobytes() == want.tobytes(), (draw, seed, size)  # signed zeros count
        assert got_rng._counter == want_rng._counter


def test_array_draws_hold_no_temporary_past_a_few_blocks():
    # the result plus a few blocks of uniforms; an unblocked draw's temporaries
    # are several times its output
    for name, size in [("normal_array", 250_000), ("random_array", 500_000)]:
        rng = RngStream(6)
        tracemalloc.start()
        try:
            out = getattr(rng, name)(size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * BLOCK * 8, (name, peak)
