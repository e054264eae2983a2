import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats
from scipy.linalg import expm
from scipy.optimize import brentq

from homsim.hilbert import BasisIndex, OperatorMatrix, basis_state, identity, matrix_exp
from homsim.model import ChannelTag, SystemParams, initial_state, stage_hamiltonian
from homsim.trajectory import (
    EIG_COND_MAX,
    Outcome,
    RngStream,
    StageEngine,
    StepSizeError,
    run_protocol,
    run_unconditioned,
    run_until_click,
    step,
)
from homsim.experiments import fidelity_to_target

IDEAL = SystemParams(adiabatic=False)
# kappa = 2 g omega / delta: the reduced generator is defective here
EXCEPTIONAL = SystemParams(adiabatic=True, kappa=0.1, t_wait=20.0)
RNG = np.random.default_rng(31337)


def frozen_photon_params(dt=1e-4):
    # drive off: a single photon in cavity 1 just leaks at rate 2*kappa
    return SystemParams(omega=0.0, dt=dt, adiabatic=False)


def photon_state(p):
    return basis_state(BasisIndex("a", "a", 1, 0), p.dims)


# -- propagator -----------------------------------------------------------------


def test_propagator_unitary_without_damping():
    p = SystemParams(kappa=0.0, adiabatic=False)
    u = StageEngine(p).propagator
    assert np.max(np.abs(u.conj().T @ u - np.eye(36))) < 1e-10


def test_propagator_first_order_limit():
    h = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
    h = OperatorMatrix(h / np.linalg.norm(h, 2), (6,))
    dt = 1e-4
    u = matrix_exp(h, -1j * dt).entries
    first = np.eye(6) - 1j * dt * h.entries
    assert np.max(np.abs(u - first)) < 1e-7


def test_propagator_contracts():
    u = StageEngine(IDEAL).propagator
    for _ in range(10):
        v = RNG.normal(size=36) + 1j * RNG.normal(size=36)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(u @ v) <= 1.0 + 1e-9


def test_spectral_propagation_matches_expm():
    # the fast sampler's eigenbasis evaluator over a seeded box of parameters,
    # both generators and both photon cutoffs, out to t = 1e4
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for i in range(16):
        adiabatic = bool(i % 2)
        gamma = 0.0 if adiabatic else rng.uniform(0.0, 1.0)
        p = SystemParams(
            omega=rng.uniform(0.2, 2.0), delta=rng.uniform(5.0, 40.0),
            kappa=rng.uniform(0.5, 20.0), gamma_ca=gamma, gamma_cb=gamma,
            n_max=1 + (i // 2) % 2, adiabatic=adiabatic,
        )
        eng = StageEngine(p)
        assert eng.spectral
        psi = rng.normal(size=eng.h_eff.shape[0]) + 1j * rng.normal(size=eng.h_eff.shape[0])
        psi /= np.linalg.norm(psi)
        for t in (0.5, 10.0, 100.0, 1e3, 1e4):
            exact = expm(-1j * t * eng.h_eff) @ psi
            worst = max(worst, float(np.max(np.abs(eng._segment(psi, t).end - exact))))
    assert worst < 1e-10


def test_exceptional_point_takes_expm_evaluator():
    assert not StageEngine(EXCEPTIONAL).spectral
    for kappa in (0.05, 0.2):
        assert StageEngine(EXCEPTIONAL.with_(kappa=kappa)).spectral


def test_exceptional_point_click_fraction_matches_survival_oracle():
    eng = StageEngine(EXCEPTIONAL)
    out = expm(-1j * EXCEPTIONAL.t_wait * eng.h_eff) @ eng.psi0.amplitudes
    p_true = 1.0 - float(np.vdot(out, out).real)
    n = 1500
    clicks = sum(
        run_until_click(eng.psi0, eng, RngStream(190, i).for_stage(0), EXCEPTIONAL.t_wait,
                        sampler="fast", share_curve=True).clicked
        for i in range(n)
    )
    assert 0.3 < p_true < 0.7
    assert abs(clicks / n - p_true) <= 3 * math.sqrt(p_true * (1 - p_true) / n)


# -- fast-sampler crossing ----------------------------------------------------------


def brentq_crossing(eng, seg, r, span):
    def excess(t):
        psi = eng._evolve(seg.coeffs, t)
        return np.vdot(psi, psi).real - r

    return brentq(excess, 0.0, span)


def assert_exact_crossing(eng, seg, r, span):
    t, psi = eng._crossing(seg, r, span)
    assert 0.0 < t < span
    at_t = eng._evolve(seg.coeffs, t)
    assert abs(np.vdot(at_t, at_t).real - r) <= 1e-12
    assert abs(t - brentq_crossing(eng, seg, r, span)) <= 1e-9
    assert np.max(np.abs(psi - at_t)) <= 1e-12


def start_state(eng, kind, t_prep):
    """psi0, or a phase-gated post-click or post-SPONT state taken from the
    no-jump evolution of psi0 at t_prep."""
    psi0 = eng.psi0.amplitudes
    if kind == "psi0":
        return psi0
    tag = ChannelTag.D1 if kind == "gated" else ChannelTag.SPONT_A_ION1
    post = eng.ops[eng.tags.index(tag)] @ eng._segment(psi0, t_prep).end
    # scaled first: at a subnormal gamma the squared entries underflow to 0
    post = post / np.max(np.abs(post))
    post = post / np.linalg.norm(post)
    return eng.phase_diag * post if kind == "gated" else post


def crossing_segment(eng, psi, span, shared):
    return eng.coarse_curve(psi, span) if shared else eng._segment(psi, span)


@settings(max_examples=60, deadline=None)
@given(
    adiabatic=st.booleans(),
    gamma=st.floats(0.0, 0.5),
    eta=st.floats(0.05, 1.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    kind=st.sampled_from(["psi0", "gated", "spont"]),
    t_prep=st.floats(0.5, 50.0),
    shared=st.booleans(),
    u=st.floats(0.0, 1.0),
)
@example(adiabatic=False, gamma=5e-324, eta=1.0, phi=0.0, kind="spont", t_prep=1.0,
         shared=False, u=0.5)
def test_crossing_is_the_exact_root(adiabatic, gamma, eta, phi, kind, t_prep, shared, u):
    # the reduced generator has no |c> level to decay from
    gamma = 0.0 if adiabatic else gamma
    assume(kind != "spont" or gamma > 0.0)
    p = SystemParams(adiabatic=adiabatic, gamma_ca=gamma, gamma_cb=gamma, eta=eta, phi=phi)
    eng = StageEngine(p)
    span = p.t_wait2 if kind == "gated" else p.t_wait
    seg = crossing_segment(eng, start_state(eng, kind, t_prep), span, shared)
    r = seg.n2_end + u * (1.0 - seg.n2_end)
    # within 1e-8 of 1 the norm sits within rounding of r over more than 1e-9
    # in t, so no root-finder can be held to 1e-9 there (see the edge test)
    assume(seg.n2_end < r <= 1.0 - 1e-8)
    assert_exact_crossing(eng, seg, r, span)


@pytest.mark.parametrize("adiabatic", [True, False])
def test_crossing_edges(adiabatic):
    gamma = 0.0 if adiabatic else 0.3
    p = SystemParams(adiabatic=adiabatic, gamma_ca=gamma, gamma_cb=gamma)
    eng = StageEngine(p)
    psi0 = eng.psi0.amplitudes
    for shared in (True, False):
        seg = crossing_segment(eng, psi0, p.t_wait, shared)
        # just above n2_end the crossing sits at the window's end
        assert_exact_crossing(eng, seg, seg.n2_end + 1e-12, p.t_wait)
        # close to 1 it sits near 0, where the norm is flat
        assert_exact_crossing(eng, seg, 1.0 - 1e-8, p.t_wait)
    # a window so long that the end norm underflows
    long_span = 1e7
    seg = eng._segment(psi0, long_span)
    assert seg.n2_end == 0.0
    for r in (0.9, 1e-3, 1e-100):
        assert_exact_crossing(eng, seg, r, long_span)


@settings(max_examples=20, deadline=None)
@given(rel=st.floats(-2e-3, 2e-3), shared=st.booleans(), u=st.floats(0.0, 1.0))
@example(rel=0.0, shared=True, u=0.5)
@example(rel=0.0, shared=False, u=0.5)
def test_crossing_near_the_exceptional_point(rel, shared, u):
    # kappa within 2e-3 of 2 g omega / delta: cond(V) runs from about 1e3 to
    # 2.5e10, so both evaluators are drawn
    p = EXCEPTIONAL.with_(kappa=EXCEPTIONAL.kappa * (1.0 + rel))
    eng = StageEngine(p)
    assert eng.spectral == (np.linalg.cond(eng._v) <= EIG_COND_MAX)
    psi0 = eng.psi0.amplitudes
    seg = crossing_segment(eng, psi0, p.t_wait, shared)
    assert np.max(np.abs(seg.end - expm(-1j * p.t_wait * eng.h_eff) @ psi0)) <= 1e-10
    r = seg.n2_end + u * (1.0 - seg.n2_end)
    assume(seg.n2_end < r <= 1.0 - 1e-8)
    assert_exact_crossing(eng, seg, r, p.t_wait)


# -- single step ------------------------------------------------------------------


def test_step_no_damping_is_unitary_evolution():
    p = SystemParams(kappa=0.0, adiabatic=False)
    eng = StageEngine(p)
    u_op = OperatorMatrix(eng.propagator, p.dims)
    psi = initial_state(p)
    rng = RngStream(3, 0)
    for k in range(50):
        psi, event = step(psi, u_op, eng.channels, rng, p.dt, total_op=eng.total_op)
        assert event is None
        assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0)
    exact = matrix_exp(stage_hamiltonian(p), -1j * 50 * p.dt).entries @ initial_state(p).amplitudes
    assert np.max(np.abs(psi.amplitudes - exact)) < 1e-10


def test_step_entangled_dark_state_never_jumps():
    # no photons and no |c> population: every channel annihilates the state
    p = SystemParams(gamma_ca=0.3, gamma_cb=0.3, adiabatic=False)
    eng = StageEngine(p)
    dims = p.dims
    amp = np.zeros(36, dtype=complex)
    amp[BasisIndex("b", "a", 0, 0).flatten(dims)] = 1 / math.sqrt(2)
    amp[BasisIndex("a", "b", 0, 0).flatten(dims)] = 1 / math.sqrt(2)
    psi = amp
    assert np.vdot(psi, eng.total_op @ psi).real == pytest.approx(0.0, abs=1e-15)


def test_step_determinism():
    eng = StageEngine(IDEAL)
    u_op = OperatorMatrix(eng.propagator, IDEAL.dims)

    def run_sequence():
        rng = RngStream(11, 4)
        psi = photon_state(IDEAL)
        out = []
        for _ in range(200):
            psi, ev = step(psi, u_op, eng.channels, rng, IDEAL.dt, total_op=eng.total_op,
                           p_step_max=0.5)
            out.append((psi.amplitudes.copy(), ev))
        return out

    a, b = run_sequence(), run_sequence()
    for (sa, ea), (sb, eb) in zip(a, b):
        assert np.array_equal(sa, sb)
        assert ea == eb


def test_step_size_guard():
    p = frozen_photon_params(dt=0.01)   # per-step jump probability 2*kappa*dt = 0.2
    eng = StageEngine(p)
    with pytest.raises(StepSizeError):
        run_until_click(photon_state(p), eng, RngStream(0, 0), 1.0, sampler="fixed")
    u_op = OperatorMatrix(eng.propagator, p.dims)
    with pytest.raises(StepSizeError):
        step(photon_state(p), u_op, eng.channels, RngStream(0, 0), p.dt, total_op=eng.total_op)


# -- run_until_click ---------------------------------------------------------------


def test_zero_window_no_click():
    eng = StageEngine(IDEAL)
    for sampler in ("fixed", "fast"):
        res = run_until_click(initial_state(IDEAL), eng, RngStream(0, 0), 0.0, sampler=sampler)
        assert not res.clicked and res.events == []


def test_no_decay_times_out():
    p = SystemParams(kappa=0.0, adiabatic=False)
    eng = StageEngine(p)
    res = run_until_click(initial_state(p), eng, RngStream(0, 1), p.t_wait, sampler="fast")
    assert not res.clicked
    assert np.vdot(res.state.amplitudes, res.state.amplitudes).real == pytest.approx(1.0)


def test_waiting_time_exponential_both_samplers():
    p = frozen_photon_params()
    eng = StageEngine(p)
    psi0 = photon_state(p)
    scale = 1.0 / (2.0 * p.kappa)
    samples = {}
    for seed, sampler in ((50, "fixed"), (60, "fast")):
        ts = []
        for i in range(1500):
            res = run_until_click(psi0, eng, RngStream(seed, i).for_stage(0), 1.0,
                                  sampler=sampler, share_curve=True)
            assert res.clicked
            ts.append(res.time)
        samples[sampler] = np.asarray(ts)
        ks = stats.kstest(samples[sampler], "expon", args=(0.0, scale))
        assert ks.pvalue > 0.01, f"{sampler}: KS p={ks.pvalue}"
    assert stats.ks_2samp(samples["fixed"], samples["fast"]).pvalue > 0.01


def test_click_fraction_matches_survival_oracle():
    # deterministic oracle: P(click) = 1 - || exp(-i H_eff T) psi0 ||^2
    eng = StageEngine(IDEAL)
    u = matrix_exp(stage_hamiltonian(IDEAL), -1j * IDEAL.t_wait).entries
    survival = float(np.vdot(u @ initial_state(IDEAL).amplitudes,
                             u @ initial_state(IDEAL).amplitudes).real)
    p_true = 1.0 - survival
    n = 4000
    clicks = sum(
        run_until_click(initial_state(IDEAL), eng, RngStream(70, i).for_stage(0),
                        IDEAL.t_wait, sampler="fast", share_curve=True).clicked
        for i in range(n)
    )
    p_hat = clicks / n
    sd = math.sqrt(p_true * (1 - p_true) / n)
    assert abs(p_hat - p_true) <= 3 * sd
    assert 0.08 < p_hat < 0.12


def test_fixed_runner_equals_step_loop():
    # the segment-replay runner must reproduce the literal stepping loop
    p = frozen_photon_params()
    eng = StageEngine(p)
    u_op = OperatorMatrix(eng.propagator, p.dims)
    n_steps = 500
    for idx in range(25):
        res = run_until_click(photon_state(p), eng, RngStream(80, idx).for_stage(0),
                              n_steps * p.dt, sampler="fixed")
        rng = RngStream(80, idx).for_stage(0)
        psi = photon_state(p)
        loop_event = None
        for k in range(n_steps):
            psi, ev = step(psi, u_op, eng.channels, rng, p.dt, total_op=eng.total_op)
            if ev is not None:
                loop_event = (round((k + 1) * p.dt, 12), ev.tag)
                break
        if res.clicked:
            assert loop_event is not None
            assert loop_event[1] is res.tag
            assert res.time == pytest.approx(loop_event[0], abs=1e-12)
            assert np.max(np.abs(res.state.amplitudes - psi.amplitudes)) < 1e-10
        else:
            assert loop_event is None


def test_norm_monotone_along_no_jump_segments():
    eng = StageEngine(SystemParams(gamma_ca=0.2, gamma_cb=0.2, adiabatic=False))
    psi = RNG.normal(size=36) + 1j * RNG.normal(size=36)
    psi /= np.linalg.norm(psi)
    norms = [1.0]
    for _ in range(300):
        psi = eng.propagator @ psi
        norms.append(float(np.vdot(psi, psi).real))
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-9)


def test_detection_thinning():
    # exactly one leaked photon per run; recording it is a Bernoulli(eta) draw
    eta = 0.7
    p = frozen_photon_params().with_(eta=eta)
    eng = StageEngine(p)
    psi0 = photon_state(p)
    n = 3000
    recorded = 0
    for i in range(n):
        res = run_until_click(psi0, eng, RngStream(90, i).for_stage(0), 1.0,
                              sampler="fast", share_curve=True)
        assert len(res.events) == 1          # photon always collapses exactly once
        recorded += res.clicked
    sd = math.sqrt(eta * (1 - eta) / n)
    assert abs(recorded / n - eta) <= 3 * sd


def test_zero_norm_start_state_rejected():
    eng = StageEngine(IDEAL)
    zero = np.zeros(36, dtype=complex)
    for sampler in ("fixed", "fast"):
        with pytest.raises(ValueError, match="norm"):
            run_until_click(zero, eng, RngStream(0, 0), IDEAL.t_wait, sampler=sampler)
    with pytest.raises(ValueError, match="norm"):
        run_unconditioned(zero, eng, RngStream(0, 0), (1.0,), [identity(IDEAL.dims)])


def test_herald_fidelity_by_tag():
    eng = StageEngine(IDEAL)
    sums = {ChannelTag.D1: [], ChannelTag.D2: []}
    for i in range(2500):
        res = run_until_click(initial_state(IDEAL), eng, RngStream(110, i).for_stage(0),
                              IDEAL.t_wait, sampler="fast", share_curve=True)
        if res.clicked:
            sums[res.tag].append(fidelity_to_target(res.state, res.tag))
    for tag, vals in sums.items():
        assert len(vals) > 50
        assert np.mean(vals) >= 0.99, f"{tag}: mean fidelity {np.mean(vals)}"


# -- full protocol -----------------------------------------------------------------


def test_protocol_same_detector_at_zero_phase():
    p = SystemParams(adiabatic=True)
    eng = StageEngine(p)
    two = 0
    for i in range(600):
        rec = run_protocol(p, RngStream(120, i), sampler="fast", engine=eng)
        if rec.outcome is Outcome.TWO_CLICKS:
            two += 1
            assert rec.second.tag is rec.first.tag
    assert two > 20


def test_protocol_opposite_detector_at_pi():
    p = SystemParams(adiabatic=True, phi=math.pi)
    eng = StageEngine(p)
    two = 0
    for i in range(600):
        rec = run_protocol(p, RngStream(130, i), sampler="fast", engine=eng)
        if rec.outcome is Outcome.TWO_CLICKS:
            two += 1
            assert rec.second.tag is not rec.first.tag
    assert two > 20


def test_protocol_second_photon_nearly_certain():
    p = SystemParams(adiabatic=True)
    eng = StageEngine(p)
    heralds = two = 0
    for i in range(800):
        rec = run_protocol(p, RngStream(140, i), sampler="fast", engine=eng)
        heralds += rec.first.clicked
        two += rec.outcome is Outcome.TWO_CLICKS
    assert heralds > 30
    assert two / heralds >= 0.9


def test_protocol_event_bookkeeping():
    p = SystemParams(gamma_ca=0.2, gamma_cb=0.2, adiabatic=False)
    eng = StageEngine(p)
    seen_two = False
    for i in range(300):
        rec = run_protocol(p, RngStream(150, i), sampler="fast", engine=eng)
        times = [e.time for e in rec.events]
        assert all(0 <= t <= p.t_wait + p.t_wait2 for t in times)
        assert times == sorted(times)
        n_recorded = sum(e.tag.recorded for e in rec.events)
        assert rec.outcome is (Outcome.NO_CLICK, Outcome.ONE_CLICK, Outcome.TWO_CLICKS)[n_recorded]
        if rec.outcome is Outcome.TWO_CLICKS:
            seen_two = True
            assert rec.second.time > rec.first.time
    assert seen_two


def test_protocol_reproducible_bitwise():
    p = SystemParams(gamma_ca=0.1, gamma_cb=0.1, adiabatic=False)
    for sampler in ("fast", "fixed"):
        t_wait2 = 200.0 if sampler == "fixed" else p.t_wait2
        pp = p.with_(t_wait2=t_wait2)
        a = [run_protocol(pp, RngStream(160, i), sampler=sampler, engine=StageEngine(pp))
             for i in range(12)]
        b = [run_protocol(pp, RngStream(160, i), sampler=sampler, engine=StageEngine(pp))
             for i in range(12)]
        for ra, rb in zip(a, b):
            assert ra.outcome is rb.outcome
            assert ra.events == rb.events
            end_a, end_b = (ra.second or ra.first).state, (rb.second or rb.first).state
            assert np.array_equal(end_a.amplitudes, end_b.amplitudes)


def test_fast_vs_fixed_click_time_distributions():
    eng = StageEngine(IDEAL)
    psi0 = initial_state(IDEAL)
    samples = {}
    for seed, sampler in ((170, "fixed"), (180, "fast")):
        ts = []
        for i in range(2000):
            res = run_until_click(psi0, eng, RngStream(seed, i).for_stage(0), IDEAL.t_wait,
                                  sampler=sampler, share_curve=True)
            if res.clicked:
                ts.append(res.time)
        samples[sampler] = np.asarray(ts)
    assert stats.ks_2samp(samples["fixed"], samples["fast"]).pvalue > 0.01


# -- unconditioned walk -------------------------------------------------------------


def test_unconditioned_repeated_time_fills_every_column():
    # stream 13 jumps before t = 10; both columns must hold the post-jump state
    p = SystemParams(gamma_ca=0.3, gamma_cb=0.3, adiabatic=False)
    eng = StageEngine(p)
    vals = run_unconditioned(eng.psi0, eng, RngStream(5, 13), (10.0, 10.0), [identity(p.dims)])
    assert vals[0, 0] == pytest.approx(1.0) and vals[0, 1] == pytest.approx(1.0)


def test_unconditioned_walk_equals_step_loop():
    # the replay walk against the literal stepping loop, over an unsorted grid
    # with a repeated time, on trajectories that jump (some more than once)
    p = SystemParams(omega=2.0, kappa=2.0, delta=10.0, gamma_ca=0.3, gamma_cb=0.3,
                     adiabatic=False)
    eng = StageEngine(p)
    u_op = OperatorMatrix(eng.propagator, p.dims)
    obs = [identity(p.dims), OperatorMatrix(eng.total_op, p.dims)]
    t_grid = (5.0, 0.0, 2.0, 5.0)
    idx = [int(round(t / p.dt)) for t in t_grid]
    jumps = []
    for i in range(20):
        vals = run_unconditioned(eng.psi0, eng, RngStream(40, i), t_grid, obs)
        rng = RngStream(40, i)
        psi = eng.psi0
        ref = {}
        jumps.append(0)
        for k in range(max(idx) + 1):
            ref[k] = [np.vdot(psi.amplitudes, o.entries @ psi.amplitudes).real for o in obs]
            if k < max(idx):
                psi, ev = step(psi, u_op, eng.channels, rng, p.dt, total_op=eng.total_op)
                jumps[-1] += ev is not None
        for j, k in enumerate(idx):
            assert np.max(np.abs(vals[:, j] - ref[k])) < 1e-10
    assert sum(jumps) >= 10 and max(jumps) >= 2


def test_unconditioned_rejects_empty_or_negative_grid():
    eng = StageEngine(IDEAL)
    obs = [identity(IDEAL.dims)]
    for grid in ((), (-1.0,), (1.0, -0.5)):
        with pytest.raises(ValueError, match="t_grid"):
            run_unconditioned(eng.psi0, eng, RngStream(0, 0), grid, obs)
