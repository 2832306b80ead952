"""Deterministic seed derivation shared across modules."""

from __future__ import annotations

import numpy as np


def child_seed(seed: int, *key: int) -> int:
    """A stable 64-bit sub-seed for the given key path."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def path_generator(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one simulated path.

    Keyed by (seed, path index) through a spawned seed sequence feeding a
    Philox stream, so any path can be regenerated in isolation regardless of
    how paths are batched or scheduled.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))


_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """seed_seq_fe's word hash; its constant is multiplied by mult per call."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    """seed_seq_fe's mix of a pool word x with a hashed word y."""
    x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return x ^ x >> 16


def path_keys(seed: int, indices) -> np.ndarray:
    """The (m, 2) uint64 Philox keys of path_generator(seed, i), i in indices.

    Row j is SeedSequence(seed, spawn_key=(indices[j],)).generate_state(2,
    np.uint64) bit for bit: SeedSequence's uint32 hash (O'Neill's
    seed_seq_fe, as in numpy's bit_generator.pyx) in uint64 arrays masked to
    32 bits, vectorised over the indices. The index is the one word after the
    seed's words (zero-padded to 4), so it must lie in [0, 2**32).
    """
    seed = int(seed)
    idx = np.asarray(indices, dtype=np.int64)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
        raise ValueError("path indices must lie in [0, 2**32)")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [idx.astype(np.uint64)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    w0, w1, w2, w3 = [hashmix(p) for p in pool]
    return np.stack([w0 | w1 << 32, w2 | w3 << 32], axis=1)
