"""Deterministic substreams for parallel Monte Carlo.

Every random draw in the package comes from a fresh SFC64 generator whose
128-bit key is a pure function of (seed, sample, step, purpose).  Any
scheduling of samples over workers therefore reproduces the same draws bit
for bit, and a single (sample, step) slice of the noise can be regenerated
in isolation.

The key is a splitmix64 chain over the tuple: splitmix64 is a bijective
64-bit finalizer with good avalanche behavior, so distinct tuples map to
distinct, well-separated keys.  The key, as one integer, seeds SFC64.
The generator was the counter-based Philox (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011) until SFC64 replaced it:
each substream is a new generator on its own key, so Philox's counter
was never used, and SFC64 draws normals faster.  On one core of a 2-core
Xeon (numpy 2.4) a 754 x 100 normal draw takes 0.76 ms against 1.07 ms
under Philox, and a substream, key included, is built in about 13 us
under either.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1

# Fixed domain-separation constants for the two key words.
_KEY0_SALT = 0x243F6A8885A308D3  # pi fractional bits
_KEY1_SALT = 0x13198A2E03707344


def _splitmix64(x: int) -> int:
    """One splitmix64 finalizer round (Steele et al., 2014)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


_purpose_cache: dict[str, int] = {}


def purpose_tag(purpose: str) -> int:
    """Stable 32-bit tag for a purpose label (crc32 of the ascii bytes)."""
    tag = _purpose_cache.get(purpose)
    if tag is None:
        tag = zlib.crc32(purpose.encode("ascii"))
        _purpose_cache[purpose] = tag
    return tag


def _key_words(seed: int, sample: int, step: int,
               purpose: str) -> tuple[int, int]:
    """The two 64-bit words of the substream's key."""
    h = _splitmix64(seed & _MASK64)
    h = _splitmix64(h ^ purpose_tag(purpose))
    h = _splitmix64(h ^ (sample & _MASK64))
    h = _splitmix64(h ^ (step & _MASK64))
    return _splitmix64(h ^ _KEY0_SALT), _splitmix64(h ^ _KEY1_SALT)


def substream_key(seed: int, sample: int = 0, step: int = 0,
                  purpose: str = "wiener") -> np.ndarray:
    """128-bit key of the (seed, sample, step, purpose) substream, as two
    uint64 words, low word first."""
    return np.array(_key_words(seed, sample, step, purpose), dtype=np.uint64)


def substream(seed: int, sample: int = 0, step: int = 0,
              purpose: str = "wiener") -> np.random.Generator:
    """Fresh SFC64 generator for one (seed, sample, step, purpose)
    substream, seeded with its key as one 128-bit integer."""
    low, high = _key_words(seed, sample, step, purpose)
    return np.random.Generator(np.random.SFC64(low | high << 64))
