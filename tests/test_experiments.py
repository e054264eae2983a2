import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from homsim.analytic import same_detector_probability
from homsim.experiments import (
    _protocol_chunk,
    _protocol_point,
    _stage1_chunk,
    _stage1_point,
    fidelity_to_target,
    run_entanglement_generation,
    run_redistribution,
    sweep,
)
from homsim.hilbert import BasisIndex, StateVector
from homsim.lindblad import ensemble_compare
from homsim.model import ChannelTag, SystemParams
from homsim.oracles import ensemble_observables
import homsim.rng
from homsim.rng import StreamBlock
from homsim.trajectory import Outcome, RngStream, StageEngine, run_protocol, run_until_click

DIMS = (3, 3, 2, 2)


def ion_pair_state(coeffs):
    amp = np.zeros(36, dtype=complex)
    for (l1, l2), c in coeffs.items():
        amp[BasisIndex(l1, l2, 0, 0).flatten(DIMS)] = c
    return StateVector(amp, DIMS)


def plus_state():
    return ion_pair_state({("b", "a"): 1 / math.sqrt(2), ("a", "b"): 1 / math.sqrt(2)})


def minus_state():
    return ion_pair_state({("b", "a"): 1 / math.sqrt(2), ("a", "b"): -1 / math.sqrt(2)})


def test_fidelity_examples():
    assert fidelity_to_target(plus_state(), ChannelTag.D1) == pytest.approx(1.0)
    assert fidelity_to_target(ion_pair_state({("b", "a"): 1.0}), ChannelTag.D1) == pytest.approx(0.5)
    assert fidelity_to_target(minus_state(), ChannelTag.D1) == pytest.approx(0.0)
    assert fidelity_to_target(minus_state(), ChannelTag.D2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity_to_target(plus_state(), ChannelTag.LOST_D1)


def test_aggregate_all_success():
    pt = _protocol_point("phi", 0.0, np.ones(40, dtype=np.int8), np.zeros(40, dtype=bool),
                         np.ones(40))
    assert pt.p_hat == 1.0
    assert pt.p_stderr == 0.0
    assert pt.f_hat == pytest.approx(1.0)
    assert pt.two_click_fraction == 0.0
    assert math.isnan(pt.ps_hat)


def test_aggregate_half_and_half():
    n_clicks = (np.arange(100) % 2 == 0).astype(np.int8)
    pt = _protocol_point("phi", 0.0, n_clicks, np.zeros(100, dtype=bool),
                         np.where(n_clicks == 1, 1.0, np.nan))
    assert pt.p_hat == pytest.approx(0.5)
    assert pt.p_stderr == pytest.approx(0.5 / 10.0)


def test_aggregate_order_independent():
    # counts do not depend on trajectory order; the fidelity mean only to rounding
    rng = np.random.default_rng(3)
    n_clicks = rng.integers(0, 3, size=60).astype(np.int8)
    same_tag = (n_clicks == 2) & (rng.random(60) < 0.5)
    fid = np.where(n_clicks >= 1, rng.random(60), np.nan)
    cols = (n_clicks, same_tag, fid)
    perm = rng.permutation(60)
    a = _protocol_point("phi", 1.0, *cols)
    b = _protocol_point("phi", 1.0, *(c[perm] for c in cols))
    for k in ("n_traj", "p_hat", "p_stderr", "ps_hat", "ps_stderr", "two_click_fraction"):
        assert getattr(a, k) == getattr(b, k), k
    assert b.f_hat == pytest.approx(a.f_hat, rel=1e-14)
    assert b.f_stderr == pytest.approx(a.f_stderr, rel=1e-12)


@pytest.mark.parametrize("heralds", [0, 1, 2])
def test_fidelity_stderr_needs_two_heralds(heralds):
    # one fidelity has no sample variance: its stderr is unknown, not 0
    clicked = np.arange(30) < heralds
    pt = _stage1_point("eta", 0.5, clicked, np.where(clicked, [0.9, 0.7] + [0.0] * 28, np.nan))
    assert math.isnan(pt.f_hat) == (heralds == 0)
    assert math.isnan(pt.f_stderr) == (heralds < 2)
    if heralds == 2:
        assert pt.f_stderr == pytest.approx(0.1)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        _protocol_point("phi", 0.0, np.zeros(0, dtype=np.int8), np.zeros(0, dtype=bool),
                        np.zeros(0))


def brentq_crossing(self, seg, r, span):
    """The crossing as brentq found it before the Newton root-finder, in the
    pair space: the shared psi0 segment, evaluated on the node, has no pair
    coefficients of its own."""
    coeffs = self._v_inv @ self.psi0.amplitudes if seg.coeffs is None else seg.coeffs

    def excess(t):
        out = self._evolve(coeffs, t)
        return np.vdot(out, out).real - r

    t = brentq(excess, 0.0, span)
    return t, self._evolve(coeffs, t)


def scalar_stage1_chunk(task):
    """_stage1_chunk's columns from one scalar fast window per trajectory,
    the reference for its batched herald windows."""
    params, seed, start, stop, _ = task
    engine = StageEngine(params)
    block = StreamBlock(seed, start, stop)
    clicked = np.zeros(stop - start, dtype=bool)
    fid = np.full(stop - start, np.nan)
    for j, i in enumerate(range(start, stop)):
        res = run_until_click(engine.psi0, engine, block.stream(i), params.t_wait,
                              sampler="fast")
        if res.clicked:
            clicked[j] = True
            fid[j] = fidelity_to_target(res.state, res.tag)
    return clicked, fid


def scalar_protocol_chunk(task):
    """_protocol_chunk's columns from one scalar run_protocol per trajectory
    on the task's sampler, the reference for its second windows."""
    params, seed, start, stop, sampler = task
    engine = StageEngine(params)
    block = StreamBlock(seed, start, stop)
    n_clicks = np.zeros(stop - start, dtype=np.int8)
    same_tag = np.zeros(stop - start, dtype=bool)
    fid = np.full(stop - start, np.nan)
    for j, i in enumerate(range(start, stop)):
        rec = run_protocol(engine, block.stream(i), sampler=sampler)
        if rec.second is not None:
            n_clicks[j] = 1 + rec.second.clicked
            same_tag[j] = rec.second.tag is rec.first.tag
            fid[j] = fidelity_to_target(rec.first.state, rec.first.tag)
    return n_clicks, same_tag, fid


@pytest.mark.parametrize("worker, reference_worker, params", [
    (_stage1_chunk, scalar_stage1_chunk,
     SystemParams(adiabatic=False, gamma_ca=0.5, gamma_cb=0.5)),
    (_protocol_chunk, scalar_protocol_chunk, SystemParams(adiabatic=True, phi=1.0)),
], ids=["stage1-gamma0.5", "protocol-phi1"])
def test_newton_crossing_keeps_brentq_decisions(monkeypatch, worker, reference_worker, params):
    # identical streams: the crossing root-finder may move click times within
    # its tolerance, never a decision; the reference is the scalar window
    # with brentq's crossing
    task = (params, 4242, 0, 2000, "fast")
    newton = worker(task)
    monkeypatch.setattr(StageEngine, "_crossing", brentq_crossing)
    reference = reference_worker(task)
    for got, want in zip(newton[:-1], reference[:-1]):
        assert np.array_equal(got, want)
    assert reference[0].sum() > 100
    assert np.array_equal(np.isnan(newton[-1]), np.isnan(reference[-1]))
    assert np.nanmax(np.abs(newton[-1] - reference[-1])) <= 1e-12


@pytest.mark.parametrize("phi", [0.0, 2.0])
def test_fixed_protocol_chunk_is_run_protocol_per_stream(phi):
    # the full generator with spontaneous decay and lost photons; a strong
    # drive and short windows keep the fixed-step walk cheap, and the second
    # window both times out and clicks
    params = SystemParams(adiabatic=False, gamma_ca=0.1, gamma_cb=0.1, eta=0.7, phi=phi,
                          omega=5.0, delta=10.0, t_wait=10.0, t_wait2=20.0)
    task = (params, 8, 0, 150, "fixed")
    got, want = _protocol_chunk(task), scalar_protocol_chunk(task)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    n_clicks = got[0]
    assert (n_clicks == 1).sum() >= 10 and (n_clicks == 2).sum() >= 3


def test_protocol_chunk_builds_one_stream_per_window(monkeypatch):
    built = []
    init = RngStream.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RngStream, "__init__", counting_init)
    n = 1000
    n_clicks, _, _ = _protocol_chunk((SystemParams(adiabatic=True, phi=1.0), 5, 0, n, "fast"))
    assert (n_clicks >= 1).sum() > 0
    # one stream per first window; the second windows run as one stack on
    # the block's stage-1 tables and build none
    assert len(built) == n


def test_protocol_chunk_derives_second_window_keys_for_heralded_rows_only(monkeypatch):
    derived = []
    keys = homsim.rng.stream_keys

    def counting_keys(seed, indices, stage):
        derived.append((stage, sorted(indices.tolist())))
        return keys(seed, indices, stage)

    monkeypatch.setattr(homsim.rng, "stream_keys", counting_keys)
    n = 1000
    n_clicks, _, _ = _protocol_chunk((SystemParams(adiabatic=True, phi=1.0), 5, 0, n, "fast"))
    heralded = np.flatnonzero(n_clicks >= 1).tolist()
    assert 0 < len(heralded) < n / 5
    # one pass per stage, each deriving both substreams: every stream's
    # first window, and only the heralded rows' second one
    assert sorted(derived) == [(0, list(range(n))), (1, heralded)]


def test_single_point_sweep_matches_direct_run():
    p = SystemParams(adiabatic=True)
    res = sweep(p, "eta", [1.0], 400, seed=5)
    direct = run_entanglement_generation(p.with_(eta=1.0), 400, seed=5)
    assert res.points[0] == dataclasses.replace(direct, param="eta", value=1.0)


@pytest.mark.parametrize("scan, chunk", [
    (lambda p, threads: sweep(p, "eta", [0.5, 1.0], 600, seed=31, threads=threads), None),
    (lambda p, threads: run_redistribution(p, [0.0, 1.0, 2.0], 400, seed=32, threads=threads),
     200),
], ids=["sweep", "redistribution"])
def test_a_scan_starts_one_pool(monkeypatch, scan, chunk):
    # a pool per grid point started none for the sweep (one chunk per point)
    # and three for the redistribution (two chunks per phase)
    import homsim.experiments as ex

    starts = []

    class CountingPool(ex.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    if chunk is not None:
        monkeypatch.setattr(ex, "_CHUNK", chunk)
    p = SystemParams(adiabatic=True)
    serial = scan(p, 1)
    monkeypatch.setattr(ex, "ProcessPoolExecutor", CountingPool)
    parallel = scan(p, 2)
    assert len(starts) == 1
    assert parallel == serial


@pytest.mark.parametrize("grid, threads, workers", [
    ([0.5, 1.0], 4096, 2), ([0.5, 0.75, 1.0], 2, 2), ([0.5, 1.0], 1, None),
])
def test_the_pool_has_at_most_one_worker_a_task(monkeypatch, grid, threads, workers):
    # a pool starts all its workers at its first task: a 2-task sweep asked
    # for 4096 threads opens 2.  The pool here runs its tasks inline, so no
    # process starts
    import homsim.experiments as ex

    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(ex, "ProcessPoolExecutor", InlinePool)
    p = SystemParams(adiabatic=True)
    got = sweep(p, "eta", grid, 300, seed=31, threads=threads)
    assert opened == ([] if workers is None else [workers])
    assert got == sweep(p, "eta", grid, 300, seed=31)


def test_sweep_validation():
    p = SystemParams()
    with pytest.raises(ValueError):
        sweep(p, "eta", [], 10, 0)
    with pytest.raises(ValueError):
        sweep(p, "eta", [1.5], 10, 0)
    with pytest.raises(ValueError):
        sweep(p, "coupling", [1.0], 10, 0)
    with pytest.raises(ValueError):
        run_entanglement_generation(p, 0, 0)


@pytest.mark.parametrize("n_traj", [0, -3, 2.5, True])
def test_library_entry_points_name_a_bad_n_traj(n_traj):
    p = SystemParams(adiabatic=True)
    with pytest.raises(ValueError, match="n_traj"):
        sweep(p, "eta", [1.0], n_traj, 0)
    with pytest.raises(ValueError, match="n_traj"):
        run_entanglement_generation(p, n_traj, 0)
    with pytest.raises(ValueError, match="n_traj"):
        run_redistribution(p, [0.0], n_traj, 0, threads=2)


@pytest.mark.parametrize("key, value", [("threads", 0), ("threads", -3), ("threads", 2.5),
                                        ("threads", True), ("seed", 1.5), ("seed", True)])
def test_library_entry_points_name_a_bad_threads_or_seed(key, value):
    p = SystemParams(adiabatic=True)
    seed, threads = (value, 1) if key == "seed" else (0, value)
    with pytest.raises(ValueError, match=key):
        sweep(p, "eta", [1.0], 10, seed, threads=threads)
    with pytest.raises(ValueError, match=key):
        run_entanglement_generation(p, 10, seed, threads=threads)
    with pytest.raises(ValueError, match=key):
        run_redistribution(p, [0.0], 10, seed, threads=threads)


def test_library_entry_points_name_a_negative_seed():
    p = SystemParams(adiabatic=True)
    with pytest.raises(ValueError, match="seed"):
        sweep(p, "eta", [1.0], 10, -1)
    with pytest.raises(ValueError, match="seed"):
        run_redistribution(p, [0.0], 10, -1)
    full = SystemParams(adiabatic=False)
    with pytest.raises(ValueError, match="seed"):
        ensemble_compare(full, ensemble_observables(full), (0.1,), 5, -1)


def test_gamma_sweep_switches_hamiltonian():
    p = SystemParams(adiabatic=True)
    res = sweep(p, "gamma", [0.2], 200, seed=9)
    assert res.points[0].n_traj == 200   # would raise in params validation otherwise


def test_eta_scaling_with_common_streams():
    p = SystemParams(adiabatic=True)
    res = sweep(p, "eta", [0.5, 1.0], 3000, seed=11)
    p_half, p_full = (pt.p_hat for pt in res.points)
    # common random numbers couple the points: the ratio sits near eta exactly
    sd = math.sqrt(p_full * (1 - p_full) / 3000)
    assert abs(p_half - 0.5 * p_full) <= 3 * sd


def test_n_max_insensitivity():
    p1 = SystemParams(adiabatic=True, n_max=1)
    p2 = SystemParams(adiabatic=True, n_max=2)
    a = run_entanglement_generation(p1, 2500, seed=13)
    b = run_entanglement_generation(p2, 2500, seed=13)
    sd = math.sqrt(2 * max(a.p_hat * (1 - a.p_hat), 1e-9) / 2500)
    assert abs(a.p_hat - b.p_hat) <= 3 * sd
    assert abs(a.f_hat - b.f_hat) <= 3 * math.hypot(a.f_stderr, b.f_stderr) + 1e-4


def test_threads_do_not_change_results():
    p = SystemParams(adiabatic=True)
    import homsim.experiments as ex

    old = ex._CHUNK
    ex._CHUNK = 500   # force several chunks
    try:
        serial = run_entanglement_generation(p, 1500, seed=21, threads=1)
        parallel = run_entanglement_generation(p, 1500, seed=21, threads=2)
    finally:
        ex._CHUNK = old
    assert serial == parallel


def test_redistribution_statistics():
    p = SystemParams(adiabatic=True)
    res = run_redistribution(p, [0.0, math.pi], 1200, seed=17)
    pt0, pt_pi = res.points
    assert pt0.ps_hat == pytest.approx(1.0)
    assert pt_pi.ps_hat == pytest.approx(0.0)
    assert pt0.two_click_fraction >= 0.95
    with pytest.raises(ValueError):
        run_redistribution(p, [], 10, 0)
    with pytest.raises(ValueError):
        run_redistribution(p, [7.0], 10, 0)


def test_conditioned_second_click_split():
    # first D1 click heralds the symmetric state; after adding phase phi the
    # second click splits (1+cos phi)/2 : (1-cos phi)/2
    phi = math.pi / 3
    p = SystemParams(adiabatic=True, phi=phi)
    eng = StageEngine(p)
    d1_then_d1 = d1_total = 0
    for i in range(2000):
        rec = run_protocol(eng, RngStream(230, i))
        if rec.outcome is Outcome.TWO_CLICKS and rec.first.tag is ChannelTag.D1:
            d1_total += 1
            d1_then_d1 += rec.second.tag is ChannelTag.D1
    want = same_detector_probability(phi)
    assert d1_total > 50
    sd = math.sqrt(want * (1 - want) / d1_total)
    assert abs(d1_then_d1 / d1_total - want) <= 3 * sd


def test_ps_antisymmetry():
    phi = math.pi / 4
    p = SystemParams(adiabatic=True)
    res = run_redistribution(p, [phi, phi + math.pi], 1500, seed=19)
    ps_a, ps_b = (pt.ps_hat for pt in res.points)
    n_two = res.points[0].n_traj * res.points[0].p_hat  # rough scale for the error
    sd = math.sqrt(0.5 / max(n_two, 1))
    assert abs(ps_a + ps_b - 1.0) <= 3 * sd
