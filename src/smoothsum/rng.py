"""Counter-based SplitMix64 random generator.

The stream is a pure function of the 64-bit seed, so identical seeds give
bit-identical draws on every platform, and blocks of draws can be produced
vectorized without changing the stream.
"""

import hashlib

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _unit(z: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles from the top 53 bits of mix(z)."""
    return (_mix_array(z) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def uniform_rows(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) uniform [0, 1) draws in one block: row r equals
    Rng(seeds[r]).uniform_array((n,)) bit for bit."""
    keys = _mix_array(np.array([s & _MASK for s in seeds], dtype=np.uint64))
    idx = np.arange(1, n + 1, dtype=np.uint64)
    return _unit(keys[:, None] + idx * np.uint64(_GOLDEN))


def stable_token_seed(text: str) -> int:
    """Platform-stable 64-bit seed for a string (sha256 prefix)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Rng:
    """Deterministic generator; draw index n yields mix(key + n*golden)."""

    def __init__(self, seed: int):
        self._key = _mix(seed & _MASK)
        self._count = 0

    def derive(self, *salts) -> "Rng":
        """Child generator keyed by this seed plus integer/string salts.

        Children do not consume draws from the parent stream.
        """
        key = self._key
        for salt in salts:
            if isinstance(salt, str):
                salt = stable_token_seed(salt)
            key = _mix(key ^ _mix(int(salt) & _MASK))
        child = Rng(0)
        child._key = key
        return child

    def next_u64(self) -> int:
        self._count += 1
        return _mix((self._key + self._count * _GOLDEN) & _MASK)

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_array(self, shape) -> np.ndarray:
        """Uniform [0, 1) draws, identical to repeated random() calls."""
        n = int(np.prod(shape)) if shape else 1
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        raw = np.uint64(self._key) + idx * np.uint64(_GOLDEN)
        return _unit(raw).reshape(shape)

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        threshold = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def choose_indices(self, n: int, k: int) -> list:
        """k distinct indices from range(n), in ascending order."""
        if k >= n:
            return list(range(n))
        pool = list(range(n))
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:k])
