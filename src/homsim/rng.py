"""Counter-based random streams, one per (master seed, trajectory, stage,
substream).

A stream is numpy's Philox4x64-10 generator keyed by
`SeedSequence(master_seed, spawn_key=(index, stage, substream))`.  Its first
output block is counter 1, and a uniform is `(raw >> 11) * 2**-53`
(`Generator.random`).  Building those numpy objects costs about 30 us a
stream, more than the physics of a typical trajectory, so `StreamBlock`
derives the keys and first output blocks of a whole range of streams in one
vectorized pass, one stage at a time and only when a stage is first used:
numpy's SeedSequence hash mix on 32-bit words, and Philox4x64-10 (Salmon et
al., SC'11) with each 64x64 -> 128-bit multiply split into 32-bit halves.
`block_uniforms` gives the output block at any counter, so a batch of
streams draws past its first block in the same vectorized way
(`nth_uniforms`).  Both match numpy bit for bit.  numpy stays the
reference: a stream made outside a block draws from the numpy objects, and a
block-bound stream that has used its first block continues on a Philox at
its key and counter 1, whose next block is counter 2 (`_KeySeed`).
"""

from __future__ import annotations

import operator
from typing import Optional

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4   # SeedSequence's default entropy pool, in 32-bit words

# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# Philox4x64 round multipliers and Weyl key increments (Random123)
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10

HEAD = 4        # uniforms in one Philox4x64 output block
SUBSTREAMS = 2  # 0: jump decisions, 1: channel choice

_NO_HEAD = np.empty(0)


class _KeySeed(np.random.bit_generator.ISeedSequence):
    """A seed that hands Philox a derived key as it is.  Philox(key=...)
    draws an unused SeedSequence from OS entropy first; seeded with this
    and advanced by one block it is Philox(key=..., counter=1), bit for bit."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def check_seed(seed) -> int:
    """The master seed as a non-negative int, or a ValueError naming it."""
    return _non_negative(seed, "seed")


def _non_negative(value, name: str) -> int:
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    return value


def _words(value: int) -> list[int]:
    """value as little-endian 32-bit words, as SeedSequence reads an int."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _const(word: int) -> np.ndarray:
    # one-element arrays, not numpy scalars: array arithmetic wraps silently
    return np.array([word], dtype=np.uint32)


def stream_keys(master_seed: int, indices, stage: int, substream: int) -> np.ndarray:
    """Philox keys, shape (len(indices), 2) uint64, equal row by row to
    `SeedSequence(master_seed, spawn_key=(i, stage, substream))
    .generate_state(2, np.uint64)`."""
    seed_words = _words(check_seed(master_seed))
    # with a spawn key, SeedSequence pads a short seed with zeros to the pool size
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    tail = _words(_non_negative(stage, "stage")) + _words(_non_negative(substream, "substream"))
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("stream indices must be a 1-d integer array")
    if idx.size and idx.min() < 0:
        raise ValueError(f"stream index must be a non-negative integer, got {idx.min()}")
    idx = idx.astype(np.uint64)
    lo = (idx & _MASK32).astype(np.uint32)
    hi = (idx >> 32).astype(np.uint32)
    keys = _mix_keys(seed_words, [lo], tail)
    wide = hi != 0   # an index of 2**32 or more is two entropy words
    if wide.any():
        keys[wide] = _mix_keys(seed_words, [lo[wide], hi[wide]], tail)
    return keys


def _mix_keys(seed_words: list[int], index_words: list[np.ndarray], tail: list[int]) -> np.ndarray:
    """SeedSequence's mix_entropy and generate_state(2, uint64) over the
    entropy seed_words + index_words + tail, vectorized over the index."""
    entropy = [_const(w) for w in seed_words] + index_words + [_const(w) for w in tail]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((index_words[0].size, 4), dtype=np.uint64)
    hash_const = _INIT_B
    for k in range(4):   # two uint64 words are four uint32 words, low word first
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, k] = value ^ (value >> _XSHIFT)
    return state[:, 0::2] | (state[:, 1::2] << 32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit product m * x."""
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    ll = x_lo * m_lo
    hl = x_hi * m_lo
    lh = x_lo * m_hi
    carry = ((ll >> 32) + (hl & _MASK32) + (lh & _MASK32)) >> 32
    return x_hi * m_hi + (hl >> 32) + (lh >> 32) + carry, x * m


def block_uniforms(keys: np.ndarray, counter: int = 1) -> np.ndarray:
    """The Philox4x64-10 output block at `counter` (a 256-bit int) for each
    key row of keys (n, 2), each raw word as (raw >> 11) * 2**-53: the HEAD
    values `Generator(Philox(key=key, counter=counter - 1)).random()` draws
    first.  Counter 1 is a stream's first block."""
    counter = _non_negative(counter, "counter")
    if counter >> 256:
        raise ValueError(f"counter must be below 2**256, got {counter}")
    k0 = keys[:, 0]
    k1 = keys[:, 1]
    c0, c1, c2, c3 = (np.full_like(k0, (counter >> (64 * j)) & _MASK64) for j in range(4))
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    raw = np.stack((c0, c1, c2, c3), axis=1)
    return (raw >> 11).astype(np.float64) * 2.0**-53


def nth_uniforms(keys: np.ndarray, head: np.ndarray, k: int) -> np.ndarray:
    """Draw k (counting from 0) of the streams with key rows keys (n, 2) and
    first blocks head (n, HEAD): from head while k < HEAD, past it from the
    block at counter 1 + k // HEAD."""
    if k < HEAD:
        return head[:, k]
    return block_uniforms(keys, 1 + k // HEAD)[:, k % HEAD]


class StreamBlock:
    """Keys and first output blocks of the streams [start, stop) of one
    master seed.  Each stage's are derived in one vectorized pass when the
    stage is first used (stage_tables), so a run that only waits for the
    herald never derives the second window's; row_tables derives a stage
    for some rows alone, such as the heralded ones."""

    def __init__(self, master_seed: int, start: int, stop: int):
        self.master_seed = check_seed(master_seed)
        self.start = _non_negative(start, "start")
        self.stop = operator.index(stop)
        if self.stop < self.start:
            raise ValueError(f"stop {self.stop} is below start {self.start}")
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def stage_tables(self, stage: int) -> tuple[np.ndarray, np.ndarray]:
        """keys (n, SUBSTREAMS, 2) uint64 and first blocks (n, SUBSTREAMS,
        HEAD) float64 of every stream's stage: 96 bytes a stream."""
        tables = self._tables.get(stage)
        if tables is None:
            tables = self._tables[stage] = self.row_tables(stage, slice(None))
        return tables

    def row_tables(self, stage: int, rows) -> tuple[np.ndarray, np.ndarray]:
        """stage_tables(stage)[rows], to the same bytes: sliced from the
        stage's tables once they exist, otherwise derived for those rows alone."""
        tables = self._tables.get(stage)
        if tables is not None:
            return tables[0][rows], tables[1][rows]
        idx = np.arange(self.start, self.stop, dtype=np.uint64)[rows]
        keys = np.stack(
            [stream_keys(self.master_seed, idx, stage, sub) for sub in range(SUBSTREAMS)], axis=1
        )
        head = np.stack([block_uniforms(keys[:, sub]) for sub in range(SUBSTREAMS)], axis=1)
        return keys, head

    def stream(self, index: int) -> "RngStream":
        """The stage-0 stream of trajectory index; for_stage(1) gives its second stage."""
        return RngStream(self.master_seed, index, block=self)


class RngStream:
    """Per-trajectory random source.

    Two independent Philox substreams per stage: one consumed by the
    jump/no-jump decisions (one value per fixed step, or one per waiting-time
    segment for the fast sampler), one consumed by channel selection.  Keying
    is (master_seed, stream_index, stage, substream), so identical inputs
    reproduce identical trajectories on any platform and in any scheduling
    order.  A stream bound to a StreamBlock keeps its row and the block's
    stage tables, not views of its own entries: it serves its first HEAD
    draws per substream from them and draws the same numbers as an unbound
    one.
    """

    def __init__(self, master_seed: int, stream_index: int, stage: int = 0, *,
                 block: Optional[StreamBlock] = None):
        self.master_seed = operator.index(master_seed)
        self.stream_index = operator.index(stream_index)
        self.stage = operator.index(stage)
        if min(self.master_seed, self.stream_index, self.stage) < 0:
            raise ValueError(
                f"seed {self.master_seed}, stream index {self.stream_index} and stage "
                f"{self.stage} must be non-negative integers"
            )
        self._block, self._row, self._tables = block, 0, None
        if block is not None:
            if (block.master_seed != self.master_seed
                    or not block.start <= self.stream_index < block.stop):
                raise ValueError(
                    f"stream ({self.master_seed}, {self.stream_index}, stage {self.stage}) "
                    f"is not in the block of seed {block.master_seed}, "
                    f"streams [{block.start}, {block.stop})"
                )
            self._row = self.stream_index - block.start
            self._tables = block.stage_tables(self.stage)
        self._drawn = [0, 0]
        self._gens: list[Optional[np.random.Generator]] = [None, None]

    def _gen(self, substream: int) -> np.random.Generator:
        if self._block is None:
            ss = np.random.SeedSequence(
                self.master_seed, spawn_key=(self.stream_index, self.stage, substream)
            )
            return np.random.Generator(np.random.Philox(ss))
        bits = np.random.Philox(_KeySeed(self._tables[0][self._row, substream]))
        return np.random.Generator(bits.advance(1))

    def _generator(self, substream: int) -> np.random.Generator:
        gen = self._gens[substream]
        if gen is None:
            gen = self._gens[substream] = self._gen(substream)
        return gen

    def _uniform(self, substream: int) -> float:
        k = self._drawn[substream]
        if k < HEAD and self._tables is not None:
            value = float(self._tables[1][self._row, substream, k])
        else:
            value = float(self._generator(substream).random())
        self._drawn[substream] = k + 1
        return value

    def for_stage(self, stage: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_index, stage, block=self._block)

    def step_uniform(self) -> float:
        return self._uniform(0)

    def step_uniforms(self, n: int) -> np.ndarray:
        k = self._drawn[0]
        head = _NO_HEAD if self._tables is None else self._tables[1][self._row, 0, k : k + n]
        if head.size == n:
            out = head.copy()
        else:
            rest = self._generator(0).random(n - head.size)
            out = np.concatenate((head, rest)) if head.size else rest
        self._drawn[0] = k + n
        return out

    def channel_uniform(self) -> float:
        return self._uniform(1)
