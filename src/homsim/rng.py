"""Counter-based random streams, one per (master seed, trajectory, stage,
substream).

A stream is numpy's Philox4x64-10 generator keyed by
`SeedSequence(master_seed, spawn_key=(index, stage, substream))`.  Its first
output block is counter 1, and a uniform is `(raw >> 11) * 2**-53`
(`Generator.random`).  Building those numpy objects costs about 30 us a
stream, more than the physics of a typical trajectory, so `StreamBlock`
derives the keys and first output blocks of a whole range of streams in one
vectorized pass, one stage at a time and only when a stage is first used,
both substreams together.  `stream_keys` runs numpy's SeedSequence hash mix
on 32-bit words over (index, substream) rows, with the substream as the
last entropy word and the words all rows share mixed once on ints;
Philox4x64-10 (Salmon et al., SC'11) runs with each 64x64 -> 128-bit
multiply split into 32-bit halves and a round's two multiplies as one
(2, n) array.  `block_uniforms` gives the output block at any counter, so a
batch of streams draws past its first block in the same vectorized way,
both substreams in one call (`nth_uniforms`).  Both match numpy bit for
bit.  numpy stays the reference: a stream made outside a block draws from
the numpy objects, and a block-bound stream that has used its first block
continues on a Philox at its key and counter 1, whose next block is
counter 2 (`_KeySeed`).
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


def _wrap32(value):
    """value modulo 2**32: an int is reduced, a uint32 array has wrapped already."""
    return value & _MASK32 if isinstance(value, int) else value


def stream_keys(master_seed: int, indices, stage: int) -> np.ndarray:
    """Philox keys of both substreams of each index, shape (len(indices),
    SUBSTREAMS, 2) uint64: [i, s] equals `SeedSequence(master_seed,
    spawn_key=(indices[i], stage, s)).generate_state(2, np.uint64)`."""
    seed_words = _words(check_seed(master_seed))
    # with a spawn key, SeedSequence pads a short seed with zeros to the pool size
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    stage_words = _words(_non_negative(stage, "stage"))
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("stream indices must be a 1-d integer array")
    if idx.size and idx.min() < 0:
        raise ValueError(f"stream index must be a non-negative integer, got {idx.min()}")
    # one pass over (index, substream) pairs, substream fastest; the
    # substream is the last entropy word
    idx = np.repeat(idx.astype(np.uint64), SUBSTREAMS)
    sub = np.tile(np.arange(SUBSTREAMS, dtype=np.uint32), idx.size // SUBSTREAMS)
    lo = (idx & _MASK32).astype(np.uint32)
    hi = (idx >> 32).astype(np.uint32)
    keys = _mix_keys(seed_words + [lo] + stage_words + [sub], idx.size)
    wide = hi != 0   # an index of 2**32 or more is two entropy words
    if wide.any():
        keys[wide] = _mix_keys(seed_words + [lo[wide], hi[wide]] + stage_words + [sub[wide]],
                               int(wide.sum()))
    return keys.reshape(-1, SUBSTREAMS, 2)


def _mix_keys(entropy: list, n: int) -> np.ndarray:
    """SeedSequence's mix_entropy and generate_state(2, uint64) for n streams
    whose entropy words are given in order, each an int that all share or a
    uint32 array of one word per stream.  Words all streams share are mixed
    on ints, the rest on arrays."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = _wrap32(value * hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = _wrap32(_wrap32(x * _MIX_MULT_L) - _wrap32(y * _MIX_MULT_R))
        return out ^ (out >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((n, 4), dtype=np.uint64)
    hash_const = _INIT_B
    for k in range(4):   # two uint64 words are four uint32 words, low word first
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = _wrap32(value * hash_const)
        state[:, k] = value ^ (value >> _XSHIFT)
    return state[:, 0::2] | (state[:, 1::2] << 32)


# a round's two multipliers, whole and in 32-bit halves, and the two Weyl
# key increments, as columns
_PHILOX_M = np.array([[_PHILOX_M0], [_PHILOX_M1]], dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> 32
_PHILOX_W = np.array([[_PHILOX_W0], [_PHILOX_W1]], dtype=np.uint64)


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products _PHILOX_M * x
    (Hacker's Delight, mulhu: no partial sum exceeds 64 bits)."""
    x_lo, x_hi = x & _MASK32, x >> 32
    t = x_hi * _PHILOX_M_LO + ((x_lo * _PHILOX_M_LO) >> 32)
    u = (t & _MASK32) + x_lo * _PHILOX_M_HI
    return x_hi * _PHILOX_M_HI + (t >> 32) + (u >> 32), x * _PHILOX_M


def block_uniforms(keys: np.ndarray, counter: int = 1) -> np.ndarray:
    """The Philox4x64-10 output block at `counter` (a 256-bit int) for each
    key row of keys (n, 2), each raw word as (raw >> 11) * 2**-53: the HEAD
    values `Generator(Philox(key=key, counter=counter - 1)).random()` draws
    first.  Counter 1 is a stream's first block."""
    counter = _non_negative(counter, "counter")
    if counter >> 256:
        raise ValueError(f"counter must be below 2**256, got {counter}")
    # x = (c0, c2) goes through the round's two multipliers as one (2, n)
    # array, y = (c1, c3) is carried; k = (k0, k1)
    k = keys.T.copy()
    words = np.array([(counter >> (64 * j)) & _MASK64 for j in range(4)], dtype=np.uint64)
    x, y = (np.broadcast_to(words[cols, None], k.shape) for cols in ([0, 2], [1, 3]))
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            k += _PHILOX_W
        hi, lo = _mulhilo(x)
        # c0, c2 = hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1; c1, c3 = lo1, lo0
        x, y = hi[::-1] ^ y ^ k, lo[::-1]
    raw = np.stack((x, y), axis=1).reshape(HEAD, -1).T   # c0, c1, c2, c3
    return (raw >> 11).astype(np.float64) * 2.0**-53


def nth_uniforms(keys: np.ndarray, head: np.ndarray, k: int) -> np.ndarray:
    """Draw k (counting from 0) of the streams with key rows keys (..., 2) and
    first blocks head (..., HEAD), such as a stage's tables: from head while
    k < HEAD, past it from the blocks at counter 1 + k // HEAD, all in one
    block_uniforms call."""
    if k < HEAD:
        return head[..., k]
    block = block_uniforms(keys.reshape(-1, 2), 1 + k // HEAD)
    return block[:, k % HEAD].reshape(keys.shape[:-1])


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
        keys = stream_keys(self.master_seed, idx, stage)
        head = block_uniforms(keys.reshape(-1, 2))
        return keys, head.reshape(-1, SUBSTREAMS, HEAD)

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
