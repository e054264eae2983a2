"""The vectorized stream derivation against numpy, and chunking against
standalone streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homsim.experiments as experiments
from homsim.model import SystemParams
from homsim.rng import HEAD, RngStream, StreamBlock, first_uniforms, stream_keys
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
@given(SEEDS, st.lists(INDICES, min_size=1, max_size=6), PARTS, PARTS)
def test_keys_and_first_block_match_numpy(seed, indices, stage, sub):
    keys = stream_keys(seed, np.array(indices, dtype=np.uint64), stage, sub)
    head = first_uniforms(keys)
    for row, i in enumerate(indices):
        ss = numpy_stream(seed, i, stage, sub)
        assert keys[row].tolist() == ss.generate_state(2, np.uint64).tolist()
        draws = np.random.Generator(np.random.Philox(ss)).random(2 * HEAD)
        assert head[row].tolist() == draws[:HEAD].tolist()
        # the continuation rule: the next block is counter 2
        more = np.random.Generator(np.random.Philox(key=keys[row], counter=1)).random(HEAD)
        assert more.tolist() == draws[HEAD:].tolist()


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


def test_block_streams_cross_the_first_block_in_every_substream():
    block = StreamBlock(2**62 + 9, 40, 43)
    for i in range(40, 43):
        for stage in (0, 1):
            a, b = block.stream(i).for_stage(stage), RngStream(2**62 + 9, i, stage)
            plan = ["step", 3, "channel"] * 3 + [9, "channel"] * 2
            assert draw_all(a, plan) == draw_all(b, plan)


def test_block_rejects_foreign_streams():
    block = StreamBlock(5, 10, 20)
    for seed, index, stage in ((6, 10, 0), (5, 9, 0), (5, 20, 0), (5, 10, 2)):
        with pytest.raises(ValueError, match="not in the block"):
            RngStream(seed, index, stage, block=block)


def test_negative_seed_or_index_is_rejected():
    with pytest.raises(ValueError, match="seed"):
        stream_keys(-1, np.arange(3), 0, 0)
    with pytest.raises(ValueError, match="stream index"):
        stream_keys(1, np.array([3, -1]), 0, 0)
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
    """Stands in for StreamBlock: hands out streams made on their own."""

    def __init__(self, seed, start, stop):
        self.seed = seed

    def stream(self, index):
        return RngStream(self.seed, index)


def test_spontaneous_decay_windows_draw_more_than_once():
    eng = StageEngine(SPONT)
    multi = sum(
        len(run_until_click(eng.psi0, eng, RngStream(404, i), SPONT.t_wait,
                            sampler="fast", share_curve=True).events) > 1
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
                got = experiments._run_chunked(worker, params, n, 404, sampler, threads)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), (chunk, threads)
