import math

import numpy as np
import pytest
from scipy.optimize import brentq

from homsim.analytic import same_detector_probability
from homsim.experiments import (
    _protocol_chunk,
    _protocol_point,
    _stage1_chunk,
    fidelity_to_target,
    run_entanglement_generation,
    run_redistribution,
    sweep,
)
from homsim.hilbert import BasisIndex, StateVector
from homsim.lindblad import ensemble_compare
from homsim.model import ChannelTag, SystemParams
from homsim.oracles import ensemble_observables
from homsim.trajectory import Outcome, RngStream, StageEngine, run_protocol

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


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        _protocol_point("phi", 0.0, np.zeros(0, dtype=np.int8), np.zeros(0, dtype=bool),
                        np.zeros(0))


def brentq_crossing(self, seg, r, span):
    """The crossing as brentq found it before the Newton root-finder."""
    def excess(t):
        out = self._evolve(seg.coeffs, t)
        return np.vdot(out, out).real - r

    t = brentq(excess, 0.0, span)
    return t, self._evolve(seg.coeffs, t)


@pytest.mark.parametrize("worker, params", [
    (_stage1_chunk, SystemParams(adiabatic=False, gamma_ca=0.5, gamma_cb=0.5)),
    (_protocol_chunk, SystemParams(adiabatic=True, phi=1.0)),
], ids=["stage1-gamma0.5", "protocol-phi1"])
def test_newton_crossing_keeps_brentq_decisions(monkeypatch, worker, params):
    # identical streams: the crossing root-finder may move click times within
    # its tolerance, never a decision
    task = (params, 4242, 0, 2000, "fast")
    newton = worker(task)
    monkeypatch.setattr(StageEngine, "_crossing", brentq_crossing)
    reference = worker(task)
    for got, want in zip(newton[:2], reference[:2]):
        assert np.array_equal(got, want)
    assert reference[0].sum() > 100
    assert np.array_equal(np.isnan(newton[2]), np.isnan(reference[2]))
    assert np.nanmax(np.abs(newton[2] - reference[2])) <= 1e-12


def test_protocol_chunk_builds_one_stream_per_window(monkeypatch):
    built = []
    init = RngStream.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RngStream, "__init__", counting_init)
    n = 1000
    n_clicks, _, _ = _protocol_chunk((SystemParams(adiabatic=True, phi=1.0), 5, 0, n, "fast"))
    second_windows = int((n_clicks >= 1).sum())
    assert second_windows > 0
    assert len(built) == n + second_windows


def test_single_point_sweep_matches_direct_run():
    p = SystemParams(adiabatic=True)
    res = sweep(p, "eta", [1.0], 400, seed=5)
    direct = run_entanglement_generation(p.with_(eta=1.0), 400, seed=5,
                                         param="eta", value=1.0)
    assert res.points[0] == direct


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


@pytest.mark.parametrize("n_traj", [0, -3])
def test_library_entry_points_name_a_bad_n_traj(n_traj):
    p = SystemParams(adiabatic=True)
    with pytest.raises(ValueError, match="n_traj"):
        sweep(p, "eta", [1.0], n_traj, 0)
    with pytest.raises(ValueError, match="n_traj"):
        run_entanglement_generation(p, n_traj, 0)
    with pytest.raises(ValueError, match="n_traj"):
        run_redistribution(p, [0.0], n_traj, 0, threads=2)


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
        rec = run_protocol(p, RngStream(230, i), sampler="fast", engine=eng)
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
