"""Philox4x64-10 streams keyed by SeedSequence, drawn as numpy draws them.

``Stream(entropy, index)`` gives, bit for bit, the draws that numpy's
``Generator(Philox(SeedSequence(entropy, spawn_key=(index,))))`` gives for the
calls the Monte Carlo makes: ``random``, ``poisson`` and ``choice`` with
weights.  The algorithms are numpy's: the SeedSequence entropy pool and its
hash mixing, the counter-based Philox4x64-10 generator of Salmon et al.
(SC'11), a double from the top 53 bits of a word, Poisson variates by the
multiplication method below a mean of 10 and by Hörmann's PTRS transformed
rejection above it, and a weighted choice by searching the normalised
cumulative weights.  They are fixed by this module, not by the installed
numpy: NEP 19 keeps numpy's bit generators stable but not the distributions
of its ``Generator``.  Scalar arithmetic goes through ``math``, whose exp,
log, sqrt and floor are the C library's, so every double is the one numpy's
C code computes from the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .angular import memo

__all__ = ["Stream"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK256 = (1 << 256) - 1

# SeedSequence: a pool of four 32-bit words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# Philox4x64: round multipliers and Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10

_TWO_M53 = 2.0 ** -53

# Stirling series coefficients of numpy's random_loggam
_LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
             -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
             6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
             -1.39243221690590e+00)
_LOG_2PI = 1.8378770664093453


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first."""
    if n < 0:
        raise ValueError(f"seed words must be >= 0, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's hash of one word under ``hash_const``, and the next constant."""
    following = hash_const * _MULT_A & _MASK32
    value = (value ^ hash_const) * following & _MASK32
    return value ^ value >> _XSHIFT, following


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _mix_in(pool: list[int], words: list[int], hash_const: int) -> int:
    """Mix the hash of each word into each pool word, in place; the hash
    constant reached."""
    for word in words:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    return hash_const


@memo("_seed_pool")
def _seed_pool(entropy: int) -> tuple[tuple[int, ...], int]:
    """The pool of ``SeedSequence(entropy, spawn_key=...)`` before the spawn
    key's words, and the hash constant reached, which every stream of one
    seed shares: the entropy words, zero-padded to the pool size because a
    spawn key follows, hashed into the pool, every pool word mixed into every
    other, then the words past the pool mixed into each one."""
    words = _words(entropy)
    words += [0] * (_POOL_SIZE - len(words))
    pool, hash_const = [], _INIT_A
    for word in words[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    hash_const = _mix_in(pool, words[_POOL_SIZE:], hash_const)
    return tuple(pool), hash_const


def _key(entropy: int, index: int) -> tuple[int, int]:
    """``SeedSequence(entropy, spawn_key=(index,)).generate_state(2, uint64)``."""
    pool, hash_const = _seed_pool(entropy)
    pool = list(pool)
    _mix_in(pool, _words(index), hash_const)
    state, hash_const = [], _INIT_B
    for word in pool:
        following = hash_const * _MULT_B & _MASK32
        word = (word ^ hash_const) * following & _MASK32
        state.append(word ^ word >> _XSHIFT)
        hash_const = following
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _loggam(x: float) -> float:
    """log Gamma(x) for x >= 1, numpy's ``random_loggam``."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7.0 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for a in reversed(_LOGGAM_A[:9]):
        gl0 *= x2
        gl0 += a
    gl = gl0 / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


class Stream:
    """The Philox4x64-10 stream of trajectory ``index`` under seed ``entropy``.

    The 256-bit counter starts at 0 and is incremented before each block;
    a block's four words are handed out in order."""

    __slots__ = ("_keys", "_counter", "_buffer")

    def __init__(self, entropy: int, index: int):
        k0, k1 = _key(entropy, index)
        self._keys = [((k0 + r * _W0) & _MASK64, (k1 + r * _W1) & _MASK64)
                      for r in range(_ROUNDS)]
        self._counter = 0
        self._buffer: list[int] = []  # the block's words not yet drawn, last one first

    def _next64(self) -> int:
        if not self._buffer:
            self._counter = (self._counter + 1) & _MASK256
            c = self._counter
            c0, c1, c2, c3 = c & _MASK64, c >> 64 & _MASK64, c >> 128 & _MASK64, c >> 192
            for k0, k1 in self._keys:
                p0, p1 = _M0 * c0, _M1 * c2
                c0, c1, c2, c3 = (p1 >> 64 ^ c1 ^ k0, p1 & _MASK64,
                                  p0 >> 64 ^ c3 ^ k1, p0 & _MASK64)
            self._buffer = [c3, c2, c1, c0]
        return self._buffer.pop()

    def random(self, size: int | None = None):
        """A double in [0, 1), or an array of ``size`` successive ones."""
        if size is None:
            return (self._next64() >> 11) * _TWO_M53
        return np.array([(self._next64() >> 11) * _TWO_M53 for _ in range(size)],
                        dtype=np.float64)

    def poisson(self, lam: float) -> int:
        """A Poisson variate of mean ``lam`` >= 0; no draw at lam = 0."""
        if lam >= 10.0:
            return self._poisson_ptrs(lam)
        if lam == 0.0:
            return 0
        # multiplication method: the count of uniforms whose running product
        # stays above exp(-lam)
        enlam = math.exp(-lam)
        count, prod = 0, 1.0
        while True:
            prod *= self.random()
            if prod > enlam:
                count += 1
            else:
                return count

    def _poisson_ptrs(self, lam: float) -> int:
        """Transformed rejection with squeeze (W. Hörmann, Insurance Math.
        Econom. 12, 39 (1993)), as numpy's ``random_poisson_ptrs``."""
        slam, loglam = math.sqrt(lam), math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:
                # in C, floor(-inf) converts to a k < 0, which is rejected
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            log_v = math.log(v) if v > 0.0 else -math.inf  # C's log(0)
            if (log_v + math.log(invalpha) - math.log(a / (us * us) + b)
                    <= -lam + k * loglam - _loggam(float(k + 1))):
                return k

    def choice(self, a: int, p) -> int:
        """An index below ``a`` drawn with weights ``p``: the count of
        normalised cumulative weights at or below one uniform."""
        cdf = np.cumsum(p, dtype=np.float64)
        if cdf.shape != (a,):
            raise ValueError(f"expected {a} weights, got shape {cdf.shape}")
        cdf /= cdf[-1]
        return int(np.searchsorted(cdf, self.random(), side="right"))
