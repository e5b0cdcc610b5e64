"""Deterministic random-stream derivation.

Reproducibility discipline: a *single* campaign seed must fully determine
every stochastic quantity in a run, and two measurements of *different*
configurations must draw from *independent* streams (so adding a
configuration to a campaign never perturbs existing measurements).

:func:`stream` derives a :class:`numpy.random.Generator` from a root seed
plus an arbitrary tuple of hashable key parts (configuration labels, problem
sizes, phase names).  Key parts are folded into the seed via SHA-256, giving
stable streams across processes and Python versions (``hash()`` is salted
per-process and must not be used for this).

A stream is the generator NumPy builds from
``PCG64(SeedSequence([seed & 0xFFFFFFFF, folded]))``.  :func:`pcg64_states`
computes that seeding for many folded keys at once, as uint32/uint64
array arithmetic bitwise equal to NumPy's, and :func:`seeded` replays the
streams on one generator whose state it sets per key — the measurement
layer seeds a whole grid's noise this way (:func:`repro.runs.noise_grid`).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np


def _fold(digest, keys: Iterable[object]):
    for key in keys:
        digest.update(repr(key).encode("utf-8"))
        digest.update(b"\x1f")  # separator so ("ab","c") != ("a","bc")
    return digest


def _fold_keys(keys: Iterable[object], prefix=None) -> int:
    """Fold ``keys`` into 64 bits, continuing a copy of ``prefix`` (a
    SHA-256 state that already folded the leading keys) when given."""
    digest = _fold(hashlib.sha256() if prefix is None else prefix.copy(), keys)
    return int.from_bytes(digest.digest()[:8], "big")


def folded_keys(
    prefix: Tuple[object, ...], suffixes: Iterable[Tuple[object, ...]]
) -> List[int]:
    """The folded key of ``(*prefix, *suffix)`` for every suffix.

    The prefix is hashed once; each suffix continues a copy of its SHA-256
    state."""
    state = _fold(hashlib.sha256(), prefix)
    return [_fold_keys(suffix, state) for suffix in suffixes]


# NumPy's SeedSequence (pool of 4 uint32 words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hash_constants(
    init: int, mult: int, count: int
) -> Iterator[Tuple[np.uint32, np.uint32]]:
    """The constant pairs SeedSequence's hash steps consume, in order: a
    step XORs the current constant in, advances it by ``mult`` and then
    multiplies by the advanced one."""
    value = init
    for _ in range(count):
        before = value
        value = (value * mult) & _MASK32
        yield np.uint32(before), np.uint32(value)


def _hashmix(words: np.ndarray, constants) -> np.ndarray:
    before, after = next(constants)
    words = (words ^ before) * after
    return words ^ (words >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _mul_64x64(a: np.ndarray, b: int) -> Tuple[np.ndarray, np.ndarray]:
    """Full 128-bit products of uint64 ``a`` and the constant ``b`` as
    ``(high, low)`` uint64 arrays, from 32-bit limbs."""
    mask = np.uint64(_MASK32)
    shift = np.uint64(32)
    a0, a1 = a & mask, a >> shift
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> shift) + (p01 & mask) + (p10 & mask)
    low = (mid << shift) | (p00 & mask)
    high = p11 + (p01 >> shift) + (p10 >> shift) + (mid >> shift)
    return high, low


def pcg64_states(seed: int, folded: Sequence[int]) -> Tuple[list, list]:
    """PCG64 ``(state, inc)`` integers for many folded keys at once.

    Key ``k`` gets the state NumPy's ``PCG64(SeedSequence([seed &
    0xFFFFFFFF, k]))`` starts in.

    The entropy words are ``[seed & 0xFFFFFFFF, k & 0xFFFFFFFF, k >> 32]``;
    SeedSequence pads its 4-word pool by hashing zeros, so a key below
    2**32 (one word) or a key of 0 seeds exactly as the zero-extended
    words do.  The pool mixing, ``generate_state(4, uint64)`` and PCG64's
    ``srandom`` step (``state = (inc + seed) * MULT + inc`` modulo 2**128)
    are the same integer operations on uint32/uint64 arrays.
    """
    keys = np.asarray(folded, dtype=np.uint64)
    words = [
        np.full(keys.shape, seed & _MASK32, dtype=np.uint32),
        (keys & np.uint64(_MASK32)).astype(np.uint32),
        (keys >> np.uint64(32)).astype(np.uint32),
        np.zeros(keys.shape, dtype=np.uint32),
    ]
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
    pool = [_hashmix(word, constants) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    constants = _hash_constants(_INIT_B, _MULT_B, 8)
    out = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64)
           for i in range(8)]
    # Little-endian word pairs: seed = (w0, w1) high then (w2, w3) low.
    seed_hi, seed_lo, seq_hi, seq_lo = (
        out[2 * j] | (out[2 * j + 1] << np.uint64(32)) for j in range(4)
    )
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    # state = inc + seed, then one LCG step: state * MULT + inc.
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo).astype(np.uint64)
    prod_hi, prod_lo = _mul_64x64(lo, _PCG_MULT_LO)
    prod_hi = prod_hi + lo * np.uint64(_PCG_MULT_HI) + hi * np.uint64(_PCG_MULT_LO)
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < prod_lo).astype(np.uint64)
    states = [(h << 64) | low for h, low in zip(state_hi.tolist(), state_lo.tolist())]
    incs = [(h << 64) | low for h, low in zip(inc_hi.tolist(), inc_lo.tolist())]
    return states, incs


def seeded(seed: int, folded: Sequence[int]) -> Iterator[np.random.Generator]:
    """The stream of every folded key, in order, on one generator.

    Each step sets the generator's PCG64 state to the key's
    (:func:`pcg64_states`) and yields the same generator object, so a
    yielded generator is only valid until the next one is requested.
    """
    states, incs = pcg64_states(seed, folded)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    value = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
             "has_uint32": 0, "uinteger": 0}
    inner = value["state"]
    for state, inc in zip(states, incs):
        inner["state"], inner["inc"] = state, inc
        bit_generator.state = value
        yield generator


def stream(seed: int, *keys: object) -> np.random.Generator:
    """Return an independent generator for ``(seed, *keys)``.

    The same arguments always yield a generator producing the same sequence;
    distinct key tuples yield statistically independent streams.
    """
    return next(seeded(seed, [_fold_keys(keys)]))


def spawn_seed(seed: int, *keys: object) -> int:
    """Derive a child integer seed for APIs that want an ``int`` seed."""
    return _fold_keys((seed, *keys))
