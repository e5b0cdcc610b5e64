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
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Tuple

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


def stream(seed: int, *keys: object) -> np.random.Generator:
    """Return an independent generator for ``(seed, *keys)``.

    The same arguments always yield a generator producing the same sequence;
    distinct key tuples yield statistically independent streams.
    """
    return next(prefixed_streams(seed, keys, [()]))


def prefixed_streams(
    seed: int, prefix: Tuple[object, ...], suffixes: Iterable[Tuple[object, ...]]
) -> Iterator[np.random.Generator]:
    """One ``stream(seed, *prefix, *suffix)`` per suffix, hashing the prefix once."""
    state = _fold(hashlib.sha256(), prefix)
    for suffix in suffixes:
        folded = _fold_keys(suffix, state)
        yield np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, folded]))


def spawn_seed(seed: int, *keys: object) -> int:
    """Derive a child integer seed for APIs that want an ``int`` seed."""
    return _fold_keys((seed, *keys))
