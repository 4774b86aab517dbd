"""Deterministic random streams.

All randomness in the package flows through RngStream, a counter-based
generator built on the splitmix64 finalizer: output k of stream (seed, stream)
is

    mix64(key + GAMMA * k)   with   key = mix64(mix64(seed) + GAMMA * stream)

where GAMMA = 0x9E3779B97F4A7C15 and mix64 is the usual
xor-shift/multiply finalizer.  The state is a single counter, so the same
(seed, stream) pair reproduces the same draw sequence on any platform, and
batched draws consume exactly the same counters as repeated scalar draws.

Uniform doubles take the top 53 bits of a word ((w >> 11) * 2**-53), which
involves no libm calls and is therefore bit-stable everywhere.  Normal draws
use Box-Muller and always consume two uniforms per value, evaluated through
one numpy code path so scalar and vector calls agree bit for bit on a given
platform.
"""

import numpy as np

from .blocks import draw_blocks

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def _mix64(z):
    # splitmix64 finalizer on python ints
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z):
    # same finalizer on a uint64 array; unsigned overflow wraps mod 2**64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MULT1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MULT2)
    return z ^ (z >> np.uint64(31))


class RngStream:
    """Counter-based random stream; see module docstring for the algorithm."""

    def __init__(self, seed, stream=0):
        self._key = _mix64((_mix64(int(seed) & _MASK) + _GAMMA * (int(stream) & _MASK)) & _MASK)
        self._counter = 0

    def next_u64(self):
        self._counter += 1
        return _mix64((self._key + _GAMMA * self._counter) & _MASK)

    def skip(self, count):
        """Move past `count` draws as if they had been taken; a negative count moves back."""
        self._counter += int(count)

    def random(self):
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def random_array(self, size):
        """Uniform doubles in [0, 1); consumes the same counters as `size` scalar draws."""
        size = int(size)
        start = self._counter + 1
        self._counter += size
        counters = np.arange(start, start + size, dtype=np.uint64)
        words = _mix64_array(np.uint64(self._key) + np.uint64(_GAMMA) * counters)
        return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def uniform_array(self, lo, hi, size):
        return lo + (hi - lo) * self.random_array(size)

    def normal_array(self, size):
        """Standard normals via Box-Muller; exactly two uniforms per value."""
        size = int(size)
        u = self.random_array(2 * size)
        # 1-u1 lies in (0, 1], so the log is finite
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        return r * np.cos(2.0 * np.pi * u[1::2])

    def normal(self):
        return float(self.normal_array(1)[0])

    def complex_normal_array(self, size):
        """Standard circular complex normals, (g1 + i*g2)/sqrt(2)."""
        g = self.normal_array(2 * size)
        return (g[0::2] + 1j * g[1::2]) / np.sqrt(2.0)

    def gaussian_array(self, size, field):
        """Field-appropriate standard Gaussian vector, field in {'real','complex'}."""
        if field == "real":
            return self.normal_array(size)
        if field == "complex":
            return self.complex_normal_array(size)
        raise ValueError(f"unknown field {field!r}")

    def signs(self, size):
        """Independent +-1 values, each from one uniform."""
        return np.where(self.random_array(size) < 0.5, -1.0, 1.0)

    def integer_below(self, bound):
        """Integer in [0, bound) from one uniform draw."""
        v = int(self.random() * bound)
        return min(v, bound - 1)

    def choice_without_replacement(self, n, k):
        """k distinct indices from range(n), partial Fisher-Yates, sorted output."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n}")
        pool = list(range(n))
        out = []
        for t in range(k):
            idx = t + self.integer_below(n - t)
            pool[t], pool[idx] = pool[idx], pool[t]
            out.append(pool[t])
        out.sort()
        return np.asarray(out, dtype=np.intp)


def sample_index(probabilities, rng):
    """Draw an index with the given probabilities using one uniform.

    probabilities must be strictly positive and sum to 1 within 1e-12.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a nonempty 1-d array")
    if np.any(p <= 0.0):
        raise ValueError("probabilities must be strictly positive")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1 within 1e-12")
    return int(draw_blocks(np.cumsum(p), rng.random()))
