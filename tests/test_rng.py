"""The vectorized stream derivation against numpy, and chunking against
standalone streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import homsim.experiments as experiments
from homsim.model import SystemParams
from homsim.rng import (
    HEAD, SUBSTREAMS, RngStream, StreamBlock, block_uniforms, nth_uniforms, stream_keys,
)
from homsim.trajectory import StageEngine, run_until_click

SEEDS = st.integers(0, 2**160 - 1)
INDICES = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]),
    st.integers(0, 2**64 - 1),
)
PARTS = st.integers(0, 1)


def numpy_stream(seed, index, stage, sub):
    return np.random.SeedSequence(seed, spawn_key=(index, stage, sub))


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.lists(INDICES, min_size=1, max_size=6), PARTS)
def test_keys_and_first_block_match_numpy(seed, indices, stage):
    keys = stream_keys(seed, np.array(indices, dtype=np.uint64), stage)
    assert keys.shape == (len(indices), SUBSTREAMS, 2)
    for sub in range(SUBSTREAMS):
        head = block_uniforms(keys[:, sub])
        for row, i in enumerate(indices):
            ss = numpy_stream(seed, i, stage, sub)
            assert keys[row, sub].tolist() == ss.generate_state(2, np.uint64).tolist()
            draws = np.random.Generator(np.random.Philox(ss)).random(2 * HEAD)
            assert head[row].tolist() == draws[:HEAD].tolist()
            # the continuation rule: the next block is counter 2
            more = np.random.Generator(np.random.Philox(key=keys[row, sub], counter=1))
            assert more.random(HEAD).tolist() == draws[HEAD:].tolist()


KEYS = st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                min_size=1, max_size=5)
# room for the 7 blocks a test draws below 2**256, where the counter ends
COUNTERS = st.one_of(
    st.integers(0, 40),
    st.sampled_from([2**64 - 2, 2**64 - 1, 2**128 - 1, 2**192 - 2, 2**256 - 8]),
    st.integers(0, 2**256 - 8),
)


@settings(max_examples=150, deadline=None)
@given(KEYS, COUNTERS, st.integers(3 * HEAD, 6 * HEAD + 3))
def test_blocks_at_any_counter_match_numpy(key_rows, counter, n):
    # numpy's Philox at counter c draws the blocks at c + 1, c + 2, ... first
    keys = np.array(key_rows, dtype=np.uint64)
    n_blocks = -(-n // HEAD)
    ours = np.concatenate(
        [block_uniforms(keys, counter + 1 + b) for b in range(n_blocks)], axis=1
    )[:, :n]
    for row, key in enumerate(keys):
        gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
        assert ours[row].tolist() == gen.random(n).tolist()
    if counter == 0:
        assert block_uniforms(keys).tolist() == ours[:, :HEAD].tolist()


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.integers(0, 2**40), PARTS, st.integers(0, 3 * HEAD))
def test_nth_uniforms_follow_the_stream(seed, start, stage, k):
    block = StreamBlock(seed, start, start + 3)
    keys, head = block.stage_tables(stage)
    for sub in range(SUBSTREAMS):
        got = nth_uniforms(keys[:, sub], head[:, sub], k)
        for row in range(3):
            ss = numpy_stream(seed, start + row, stage, sub)
            assert got[row] == np.random.Generator(np.random.Philox(ss)).random(k + 1)[k]


def test_block_uniforms_rejects_a_bad_counter():
    keys = np.zeros((1, 2), dtype=np.uint64)
    for counter in (-1, 2**256):
        with pytest.raises(ValueError, match="counter"):
            block_uniforms(keys, counter)


def test_block_derives_a_stage_on_first_use():
    block = StreamBlock(7, 0, 4)
    block.stream(2).step_uniform()
    assert set(block._tables) == {0}
    block.stream(2).for_stage(1).channel_uniform()
    assert set(block._tables) == {0, 1}


DRAWS = st.lists(
    st.one_of(st.just("step"), st.just("channel"), st.integers(0, 7)), min_size=1, max_size=12
)


def draw_all(rng, plan):
    out = []
    for op in plan:
        if op == "step":
            out.append(rng.step_uniform())
        elif op == "channel":
            out.append(rng.channel_uniform())
        else:
            out.extend(rng.step_uniforms(op).tolist())
    return out


@settings(max_examples=100, deadline=None)
@given(SEEDS, INDICES, PARTS, DRAWS)
def test_block_stream_draws_what_a_standalone_stream_draws(seed, index, stage, plan):
    block = StreamBlock(seed, index, index + 1)
    bound = block.stream(index).for_stage(stage)
    assert draw_all(bound, plan) == draw_all(RngStream(seed, index, stage), plan)


@settings(max_examples=60, deadline=None)
@given(SEEDS, INDICES, PARTS, PARTS, st.lists(st.integers(1, 13), min_size=1, max_size=5))
def test_block_stream_continues_on_philox_at_counter_1(seed, index, stage, sub, sizes):
    # past its first block a bound stream draws from its key at counter 1,
    # without the entropy numpy's Philox(key=...) draws and discards
    block = StreamBlock(seed, index, index + 1)
    key = block.stage_tables(stage)[0][0, sub]
    got = block.stream(index).for_stage(stage)._gen(sub)
    want = np.random.Generator(np.random.Philox(key=key, counter=1))
    for n in sizes + [9]:   # at least two blocks of four
        assert got.random(n).tobytes() == want.random(n).tobytes()
    assert got.integers(2**32, size=3).tobytes() == want.integers(2**32, size=3).tobytes()


def test_block_streams_cross_the_first_block_in_every_substream():
    # a block derives any stage, not only the protocol's two windows
    block = StreamBlock(2**62 + 9, 40, 43)
    plan = ["step", 3, "channel"] * 3 + [9, "channel"] * 2
    for i in range(40, 43):
        for stage in (0, 1, 2):
            want = draw_all(RngStream(2**62 + 9, i, stage), plan)
            assert draw_all(block.stream(i).for_stage(stage), plan) == want
            assert draw_all(RngStream(2**62 + 9, i, stage, block=block), plan) == want


def test_block_rejects_foreign_streams():
    block = StreamBlock(5, 10, 20)
    for seed, index, stage in ((6, 10, 0), (5, 9, 0), (5, 20, 0)):
        with pytest.raises(ValueError, match="not in the block"):
            RngStream(seed, index, stage, block=block)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([0, 7, 2**32 - 3, 2**64 - 7]), PARTS,
       st.lists(st.integers(0, 5), max_size=8))
@example(seed=3, start=0, stage=1, rows=[])
@example(seed=3, start=0, stage=1, rows=[4])
@example(seed=3, start=2**32 - 3, stage=0, rows=[5, 0, 3, 2, 3])
def test_row_tables_are_the_stage_tables_at_those_rows(seed, start, stage, rows):
    # rows come unsorted, repeated or empty; from 2**32 - 3 they cross to
    # stream indices of two entropy words
    rows = np.array(rows, dtype=int)
    block = StreamBlock(seed, start, start + 6)
    alone = block.row_tables(stage, rows)
    assert not block._tables   # derived for those rows, not the whole stage
    whole = block.stage_tables(stage)
    sliced = block.row_tables(stage, rows)
    for got in (alone, sliced):
        for table, full in zip(got, whole, strict=True):
            assert table.dtype == full.dtype and table.shape == full[rows].shape
            assert table.tobytes() == full[rows].tobytes()


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([0, 5, 2**32 - 3, 2**32, 2**64 - 7]), PARTS,
       st.lists(st.integers(0, 5), max_size=6))
@example(seed=0, start=0, stage=0, rows=[])
@example(seed=2**64 + 3, start=2**32 - 3, stage=1, rows=[2])
@example(seed=9, start=2**32 - 3, stage=1, rows=[4, 1, 4, 2, 3])
def test_row_tables_are_each_substreams_keys_and_first_block(seed, start, stage, rows):
    # stream_keys' keys of those streams and their first blocks, as numpy's
    # SeedSequence and Philox give them; indices from 2**32 - 3 on cross to
    # two entropy words
    keys, head = StreamBlock(seed, start, start + 6).row_tables(stage, np.array(rows, dtype=int))
    assert keys.shape == (len(rows), SUBSTREAMS, 2) and head.shape == (len(rows), SUBSTREAMS, HEAD)
    idx = np.array([start + r for r in rows], dtype=np.uint64)
    assert keys.tobytes() == stream_keys(seed, idx, stage).tobytes()
    for sub in range(SUBSTREAMS):
        assert head[:, sub].tobytes() == block_uniforms(keys[:, sub]).tobytes()
        for row, i in enumerate(idx.tolist()):
            ss = numpy_stream(seed, i, stage, sub)
            assert keys[row, sub].tolist() == ss.generate_state(2, np.uint64).tolist()
            draws = np.random.Generator(np.random.Philox(ss)).random(HEAD)
            assert head[row, sub].tolist() == draws.tolist()


def test_row_tables_reject_rows_outside_the_block():
    block = StreamBlock(3, 10, 14)
    for rows in ([4], [-5], [0.0]):
        with pytest.raises(IndexError):
            block.row_tables(0, np.array(rows))


def test_negative_seed_or_index_is_rejected():
    with pytest.raises(ValueError, match="seed"):
        stream_keys(-1, np.arange(3), 0)
    with pytest.raises(ValueError, match="stream index"):
        stream_keys(1, np.array([3, -1]), 0)
    with pytest.raises(ValueError, match="seed"):
        StreamBlock(-1, 0, 3)
    with pytest.raises(ValueError, match="start"):
        StreamBlock(1, -2, 3)
    with pytest.raises(ValueError, match="seed"):
        RngStream(-1, 0)
    with pytest.raises(ValueError, match="stream index"):
        RngStream(0, -1)


# -- chunk boundaries --------------------------------------------------------

SPONT = SystemParams(adiabatic=False, gamma_ca=0.5, gamma_cb=0.5)
CHUNK_CASES = [
    (experiments._stage1_chunk, SystemParams(adiabatic=True), "fast", 600),
    (experiments._stage1_chunk, SPONT, "fast", 600),
    (experiments._stage1_chunk, SystemParams(adiabatic=True), "fixed", 600),
    (experiments._protocol_chunk, SystemParams(adiabatic=True, phi=1.0), "fast", 600),
    (experiments._protocol_chunk, SystemParams(adiabatic=True, phi=1.0, t_wait2=20.0),
     "fixed", 600),
]


class _StandaloneStreams:
    """Stands in for StreamBlock: hands out streams made on their own, and
    takes the keys and first blocks the batched windows read (every row's
    for the herald windows, the heralded rows' for the second ones) from
    numpy's SeedSequence and Philox."""

    def __init__(self, seed, start, stop):
        self.seed, self.start, self.stop = seed, start, stop

    def stream(self, index):
        return RngStream(self.seed, index)

    def stage_tables(self, stage):
        return self.row_tables(stage, np.arange(self.stop - self.start))

    def row_tables(self, stage, rows):
        seqs = [[numpy_stream(self.seed, self.start + int(j), stage, sub)
                 for sub in range(SUBSTREAMS)] for j in rows]
        keys = np.array([[ss.generate_state(2, np.uint64) for ss in row] for row in seqs],
                        dtype=np.uint64)
        head = np.array([[np.random.Generator(np.random.Philox(ss)).random(HEAD) for ss in row]
                         for row in seqs])
        return keys.reshape(len(rows), SUBSTREAMS, 2), head.reshape(len(rows), SUBSTREAMS, HEAD)


def test_spontaneous_decay_windows_draw_more_than_once():
    eng = StageEngine(SPONT)
    multi = sum(
        len(run_until_click(eng.psi0, eng, RngStream(404, i), SPONT.t_wait,
                            sampler="fast").events) > 1
        for i in range(600)
    )
    assert multi >= 5


@pytest.mark.parametrize("worker, params, sampler, n", CHUNK_CASES)
def test_chunk_boundaries_do_not_change_results(monkeypatch, worker, params, sampler, n):
    with monkeypatch.context() as m:
        m.setattr(experiments, "StreamBlock", _StandaloneStreams)
        want = worker((params, 404, 0, n, sampler))
    for chunk in (37, 500, experiments._CHUNK):
        for threads in (1, 2):
            with monkeypatch.context() as m:
                m.setattr(experiments, "_CHUNK", chunk)
                (got,) = experiments._run_chunked(worker, [params], n, 404, sampler, threads)
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), (chunk, threads)
