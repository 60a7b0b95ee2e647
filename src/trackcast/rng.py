"""Deterministic seeding helpers and a counter-based value source.

Synthetic data generation draws every value through a hash of
``(seed, index, stream)``.  Values therefore depend only on their
coordinates, never on draw order, so generation can be chunked or
parallelized without changing the output.  The same mixer derives
member seeds for ensembles.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_INV_2_53 = 2.0 ** -53


def _mix_int(z: int) -> int:
    # splitmix64 finalizer on plain Python ints (explicit 64-bit wrap)
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(*parts: int) -> int:
    """Fold integer parts into one well-mixed 64-bit seed.

    Used wherever a child seed must be a pure function of a parent seed
    plus an index, e.g. ensemble member i gets ``derive_seed(seed, i)``.
    """
    h = _GOLDEN
    for p in parts:
        h = _mix_int(h ^ _mix_int((int(p) & _MASK) + _GOLDEN))
    return h


def _mix_array(z: np.ndarray) -> np.ndarray:
    # vectorized splitmix64 finalizer; uint64 arrays wrap silently
    z = (z ^ (z >> np.uint64(30))) * _U_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U_MIX2
    return z ^ (z >> np.uint64(31))


def _keyed_u64(seed: int, index: np.ndarray, stream: int) -> np.ndarray:
    idx = np.atleast_1d(np.asarray(index, dtype=np.uint64))
    base = np.uint64(derive_seed(seed, stream))
    return _mix_array(_mix_array(idx + _U_GOLDEN) ^ base)


def keyed_uniform(seed: int, index, stream: int) -> np.ndarray:
    """Uniform draws on (0, 1], one per entry of ``index``.

    Streams are logical channels: the same (seed, index) pair yields
    independent values on different streams.
    """
    u = _keyed_u64(seed, index, 2 * stream)
    return ((u >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53


def keyed_normal(seed: int, index, stream: int) -> np.ndarray:
    """Standard normal draws keyed by (seed, index, stream).

    Box-Muller on two uniforms from sub-channels of ``stream``; uniforms
    live in (0, 1] so the log never sees zero.
    """
    top53 = np.uint64(11)  # shift keeping the top 53 bits
    u1 = ((_keyed_u64(seed, index, 2 * stream) >> top53).astype(np.float64) + 1.0) * _INV_2_53
    u2 = ((_keyed_u64(seed, index, 2 * stream + 1) >> top53).astype(np.float64) + 1.0) * _INV_2_53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
