import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats
from scipy.linalg import expm
from scipy.optimize import brentq

from homsim.hilbert import BasisIndex, OperatorMatrix, StateVector, basis_state
from homsim.model import (
    ChannelTag, ParamError, SystemParams, initial_state, node_generator, node_jump_rate,
    stage_hamiltonian, two_nodes,
)
from homsim.rng import HEAD, StreamBlock
from homsim.trajectory import (
    EIG_COND_MAX,
    Outcome,
    RngStream,
    StageEngine,
    StepSizeError,
    _pick,
    _RING_POINTS,
    _TABLE_POINTS,
    _Grid,
    _rows,
    _unit,
    _Segment,
    run_protocol,
    run_unconditioned,
    run_until_click,
    run_windows,
    whole_steps,
)
from homsim.experiments import fidelity_to_target
from reference import block_states, excitation_number, identity, matrix_exp, step

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
                        sampler="fast").clicked
        for i in range(n)
    )
    assert 0.3 < p_true < 0.7
    assert abs(clicks / n - p_true) <= 3 * math.sqrt(p_true * (1 - p_true) / n)


# -- fast-sampler crossing ----------------------------------------------------------


def pair_coeffs(eng, seg):
    """The segment's start state in the pair's eigenbasis: its own coeffs,
    or psi0's for the shared psi0 segment, which is evaluated on the node."""
    return eng._v_inv @ eng.psi0.amplitudes if seg.coeffs is None else seg.coeffs


def brentq_crossing(eng, seg, r, span):
    """brentq's root of the squared norm minus r, on the evaluator that gave
    the segment its end norm n2_end: the stacked node evaluator for the
    shared psi0 segment (see coarse_curve), the pair space for any other.
    Any other evaluator may differ from n2_end in the last bits, and an r
    within those of n2_end then has no sign change on [0, span]."""
    def excess(t):
        if seg.node is not None:
            return eng._node_rows(seg.node[None, None], np.array([t]))[1][0] - r
        psi = eng._evolve(seg.coeffs, t)
        return np.vdot(psi, psi).real - r

    return brentq(excess, 0.0, span)


def assert_exact_crossing(eng, seg, r, span):
    t, psi = eng._crossing(seg, r, span)
    assert 0.0 < t < span
    at_t = eng._evolve(pair_coeffs(eng, seg), t)
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
    """The shared psi0 segment (psi must be psi0), or psi's own."""
    return eng.coarse_curve(span) if shared else eng._segment(psi, span)


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
# r within rounding of the node's end norm: the pair-space norm need not
# change sign on [0, span] there
@example(adiabatic=False, gamma=0.3, eta=1.0, phi=0.0, kind="psi0", t_prep=1.0,
         shared=True, u=1e-16)
@example(adiabatic=False, gamma=0.3, eta=0.3, phi=0.0, kind="psi0", t_prep=1.0,
         shared=True, u=1e-16)
def test_crossing_is_the_exact_root(adiabatic, gamma, eta, phi, kind, t_prep, shared, u):
    # the reduced generator has no |c> level to decay from
    gamma = 0.0 if adiabatic else gamma
    assume(kind != "spont" or gamma > 0.0)
    # the one shared segment is psi0's
    assume(kind == "psi0" or not shared)
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
# r one rounding above n2_end: the root lies within rounding of the window's
# end, which the crossing must not return
@example(rel=0.001953125, shared=False, u=2.220446049250313e-16)
def test_crossing_near_the_exceptional_point(rel, shared, u):
    # kappa within 2e-3 of 2 g omega / delta: cond(V) runs from about 1e3 to
    # 2.5e10, so both evaluators are drawn
    p = EXCEPTIONAL.with_(kappa=EXCEPTIONAL.kappa * (1.0 + rel))
    eng = StageEngine(p)
    # cond(V) = cond(v)^2 for the node's eigenvectors v
    v = np.linalg.eig(node_generator(p))[1]
    assert eng.spectral == (np.linalg.cond(v) ** 2 <= EIG_COND_MAX)
    psi0 = eng.psi0.amplitudes
    seg = crossing_segment(eng, psi0, p.t_wait, shared)
    assert np.max(np.abs(seg.end - expm(-1j * p.t_wait * eng.h_eff) @ psi0)) <= 1e-10
    r = seg.n2_end + u * (1.0 - seg.n2_end)
    assume(seg.n2_end < r <= 1.0 - 1e-8)
    assert_exact_crossing(eng, seg, r, p.t_wait)


@settings(max_examples=40, deadline=None)
@given(
    adiabatic=st.booleans(),
    gamma=st.floats(0.0, 0.5),
    eta=st.floats(0.05, 1.0),
    n_max=st.sampled_from([1, 2]),
    # the usual range, and within 2e-3 of the reduced generator's exceptional
    # point, where both evaluators are drawn
    kappa=st.one_of(st.floats(0.5, 20.0), st.floats(0.0998, 0.1002)),
    t_wait=st.floats(1.0, 300.0),
    u=st.floats(0.0, 1.0),
)
@example(adiabatic=True, gamma=0.0, eta=0.6, n_max=1, kappa=0.1, t_wait=20.0, u=0.5)
@example(adiabatic=False, gamma=0.5, eta=1.0, n_max=2, kappa=10.0, t_wait=100.0, u=0.5)
# r within rounding of the node's end norm (see brentq_crossing)
@example(adiabatic=True, gamma=0.0, eta=1.0, n_max=1, kappa=0.0998, t_wait=1.0, u=2e-12)
@example(adiabatic=False, gamma=0.0, eta=1.0, n_max=1, kappa=0.0998, t_wait=1.0, u=2e-12)
def test_psi0_segment_on_the_node_matches_the_pair(adiabatic, gamma, eta, n_max, kappa,
                                                   t_wait, u):
    # psi0 = two_nodes(a0, a0): its end norm, norm table and crossings come
    # from the node, and must agree with the pair-space evaluator
    gamma = 0.0 if adiabatic else gamma
    p = SystemParams(adiabatic=adiabatic, gamma_ca=gamma, gamma_cb=gamma, eta=eta,
                     n_max=n_max, kappa=kappa, t_wait=t_wait)
    eng = StageEngine(p)
    psi0 = eng.psi0.amplitudes
    seg, pair = eng.coarse_curve(t_wait), eng._segment(psi0, t_wait)
    assert seg.node is not None and pair.node is None
    assert abs(seg.n2_end - pair.n2_end) <= 1e-12
    assert np.max(np.abs(seg.end - pair.end)) <= 1e-12
    times = seg.grid.times()
    assert times.size == seg.table.size and times[0] == 0.0 and times[-1] == t_wait
    grid, n2, slope = eng._pair_rows(pair.coeffs[None], times)
    assert np.max(np.abs(seg.table + np.minimum.accumulate(n2))) <= 1e-12
    # the Newton slope too: -2 (phi^dag phi)(phi^dag j phi) = -<psi| sum L^dag L |psi>
    phi, node_n2, node_slope = eng._node_rows(seg.node[None, None], times)
    assert np.max(np.abs(node_n2 - n2)) <= 1e-12
    assert np.max(np.abs(node_slope - slope)) <= 1e-12 * max(1.0, np.max(np.abs(slope)))
    assert np.max(np.abs(eng._products(phi[:, 0], phi[:, 0]) - grid)) <= 1e-12
    r = seg.n2_end + np.array([u, 0.5, 1e-3]) * (1.0 - seg.n2_end)
    r = r[(seg.n2_end < r) & (r <= 1.0 - 1e-8)]
    assume(r.size)
    span = np.full(r.size, t_wait)
    guess = eng._first_guess_rows(seg, None, r, span)
    ts, states = eng._crossing_rows(eng._node_rows, seg.node[None, None], r, span, guess)
    # the crossing states stay on the node, as two_nodes(phi, phi)
    assert states.shape == (r.size, 1, eng._h.shape[0])
    lifted = eng._products(states[:, 0], states[:, 0])
    for i, ri in enumerate(r):
        assert_exact_crossing(eng, seg, ri, t_wait)   # the scalar crossing
        at_t = eng._evolve(pair_coeffs(eng, seg), ts[i])
        assert abs(np.vdot(at_t, at_t).real - ri) <= 1e-12
        assert abs(ts[i] - brentq_crossing(eng, seg, ri, t_wait)) <= 1e-9
        assert np.max(np.abs(lifted[i] - at_t)) <= 1e-12
        # a row crosses alone as it does in the stack, to the last bit
        t, psi = eng._crossing_rows(eng._node_rows, seg.node[None, None], r[i:i + 1], span[:1],
                                    guess[i:i + 1])
        assert t.tobytes() == ts[i:i + 1].tobytes() and psi.tobytes() == states[i:i + 1].tobytes()


@pytest.mark.parametrize("p", [SystemParams(adiabatic=False, gamma_ca=0.3, gamma_cb=0.1),
                               SystemParams(adiabatic=True, n_max=2, lam=2.0), EXCEPTIONAL],
                         ids=["full", "reduced-n2", "expm"])
def test_product_rows_evolve_as_the_pair(p):
    # two_nodes(a, b) of unequal node states, evolved on the node: its
    # states, squared norms and slopes against the pair-space evaluator
    eng = StageEngine(p)
    gen = np.random.default_rng(11)
    d = eng._h.shape[0]
    nodes = gen.normal(size=(50, 2, d)) + 1j * gen.normal(size=(50, 2, d))
    t = gen.random(50) * 20.0
    coeffs, n2_end = eng._node_segment_rows(nodes, t)
    phi, n2, slope = eng._node_rows(coeffs, t)
    pair = eng._products(nodes[:, 0], nodes[:, 1])
    psi, want_n2, want_slope = eng._pair_rows(np.stack([eng._v_inv @ x for x in pair]), t)
    scale = np.max(np.abs(psi), axis=1)
    assert np.all(np.abs(eng._products(phi[:, 0], phi[:, 1]) - psi) <= 1e-12 * scale[:, None])
    assert np.all(np.abs(n2 - want_n2) <= 1e-12 * want_n2)
    assert np.all(np.abs(slope - want_slope) <= 1e-12 * np.abs(want_slope))
    assert n2_end.tobytes() == n2.tobytes()


def test_psi0_crossings_evaluate_the_node_alone(monkeypatch):
    # without unrecorded jumps every crossing starts from psi0, and none of
    # them may evaluate a state of the pair
    p = SystemParams(adiabatic=True)
    eng = StageEngine(p)

    def pair(*args):
        raise AssertionError("a psi0 crossing evaluated a state of the pair")

    monkeypatch.setattr(eng, "_pair_at", pair)
    monkeypatch.setattr(eng, "_pair_rows", pair)
    block = StreamBlock(5, 0, 1000)
    assert (run_windows(eng, block, p.t_wait).channel >= 0).sum() > 50
    assert sum(run_until_click(eng.psi0, eng, block.stream(i), p.t_wait, sampler="fast").clicked
               for i in range(200)) > 5


def test_crossing_stays_below_an_end_within_rounding_of_the_root():
    # the scalar and the stacked crossing, from the same guess, where every
    # iterate above the float below span would be the end itself
    p = EXCEPTIONAL.with_(kappa=EXCEPTIONAL.kappa * (1.0 + 0.001953125))
    eng = StageEngine(p)
    seg = eng._segment(eng.psi0.amplitudes, p.t_wait)
    r = seg.n2_end + 2.220446049250313e-16 * (1.0 - seg.n2_end)
    span = np.array([p.t_wait])
    t, _ = eng._crossing(seg, r, p.t_wait)
    for guess in (p.t_wait, eng._first_guess(seg, r, p.t_wait)):
        ts, _ = eng._crossing_rows(eng._pair_rows, seg.coeffs[None], np.array([r]), span,
                                   np.array([guess]))
        assert ts[0] == t == math.nextafter(p.t_wait, 0.0)


def test_node_curvature_is_the_norms_second_derivative():
    # the Halley evaluator's second derivative against central differences of
    # its slope, for rows from psi0 (k = 1) and for unequal node pairs
    for p in (SystemParams(adiabatic=False, gamma_ca=0.3, gamma_cb=0.1),
              SystemParams(adiabatic=True, n_max=2, lam=2.0), EXCEPTIONAL):
        eng = StageEngine(p)
        gen = np.random.default_rng(3)
        d = eng._h.shape[0]
        nodes = gen.normal(size=(20, 2, d)) + 1j * gen.normal(size=(20, 2, d))
        nodes /= np.linalg.norm(nodes, axis=2, keepdims=True)
        t = gen.random(20) * 5.0
        for c in (eng._node0[None, None], eng._node_segment_rows(nodes, t)[0]):
            phi, n2, slope, curv = eng._node_rows(c, t, 2)
            assert eng._node_rows(c, t)[1].tobytes() == n2.tobytes()
            h = 1e-5
            diff = (eng._node_rows(c, t + h)[2] - eng._node_rows(c, t - h)[2]) / (2.0 * h)
            assert np.all(np.abs(curv - diff) <= 1e-6 * (1.0 + np.abs(curv)))


@settings(max_examples=60, deadline=None)
@given(
    adiabatic=st.booleans(),
    gamma=st.floats(0.0, 0.5),
    n_max=st.sampled_from([1, 2]),
    # the usual range, and within 2e-3 of the reduced generator's exceptional
    # point, where the node propagates with expm
    kappa=st.one_of(st.floats(0.5, 20.0), st.floats(0.0998, 0.1002)),
    t_wait=st.floats(1.0, 300.0),
    kind=st.sampled_from(["psi0", "product"]),
    t_prep=st.floats(0.1, 30.0),
    u=st.floats(0.0, 1.0),
)
@example(adiabatic=True, gamma=0.0, n_max=1, kappa=0.1, t_wait=20.0, kind="psi0", t_prep=1.0,
         u=0.5)
@example(adiabatic=True, gamma=0.0, n_max=1, kappa=0.1, t_wait=20.0, kind="product",
         t_prep=1.0, u=0.5)
@example(adiabatic=False, gamma=0.3, n_max=1, kappa=10.0, t_wait=100.0, kind="product",
         t_prep=2.0, u=0.97)
# f changes sign, within rounding, between two floats near 0.766, and a
# Newton step lands on the upper one, already evaluated as hi
@example(adiabatic=True, gamma=0.0, n_max=1, kappa=0.1002, t_wait=1.0, kind="psi0", t_prep=1.0,
         u=0.5419907113430217)
def test_halley_first_step_stays_in_the_bracket(adiabatic, gamma, n_max, kappa, t_wait, kind,
                                                 t_prep, u):
    # the crossing from run_windows' first guess with a Halley first step: a
    # row from psi0 on its norm table, or a product row two_nodes(a, b) on
    # its log-linear guess, a the no-jump node state of a0 at t_prep and b
    # a0; every evaluation lies inside the bracket the earlier ones left, and
    # the crossing is brentq's root within 1e-9
    gamma = 0.0 if adiabatic else gamma
    p = SystemParams(adiabatic=adiabatic, gamma_ca=gamma, gamma_cb=gamma, n_max=n_max,
                     kappa=kappa, t_wait=t_wait)
    eng = StageEngine(p)
    seg = eng.coarse_curve(t_wait)
    if kind == "psi0":
        c, n2_end = seg.node[None, None], seg.n2_end
    else:
        a = eng._node_rows(eng._node0[None, None], np.array([t_prep]))[0][0, 0]
        pair = np.stack((a, np.eye(eng._h.shape[0])[0]))[None]
        c, n2_end = eng._node_segment_rows(pair / np.linalg.norm(pair, axis=2, keepdims=True),
                                           np.array([t_wait]))
        n2_end = n2_end[0]
    r = n2_end + u * (1.0 - n2_end)
    assume(n2_end < r <= 1.0 - 1e-8)
    r, span = np.array([r]), np.array([t_wait])
    guess = eng._first_guess_rows(seg if kind == "psi0" else None, np.array([n2_end]), r, span)
    seen = []

    def record(at):
        def evaluate(c_, t_):
            out = at(c_, t_)
            seen.append((float(t_[0]), float(out[1][0]) - float(r[0])))
            return out
        return evaluate

    # the first-step evaluator run_windows gives the node crossings
    t, _ = eng._crossing_rows(record(eng._node_rows), c, r, span, guess,
                              record(lambda c_, t_: eng._node_rows(c_, t_, 2)))
    lo, hi = 0.0, t_wait
    for at_t, f in seen:
        assert lo <= at_t < hi or at_t == lo == math.nextafter(t_wait, 0.0)
        lo, hi = (at_t, hi) if f > 0.0 else (lo, at_t)
    root = brentq(lambda x: eng._node_rows(c, np.array([x]))[1][0] - r[0], 0.0, t_wait)
    assert abs(t[0] - root) <= 1e-9


def test_crossing_work_of_a_decay_point(monkeypatch):
    # one decay-gamma point (full generator, gamma 0.3, 1000 herald windows):
    # the Newton iterations of each _crossing_rows call, counted by wrapping
    # its evaluators; 25 in four calls (8, 7, 6, 4) from the uniform
    # 257-point psi0 table with Newton steps alone
    p = SystemParams(adiabatic=False, gamma_ca=0.3, gamma_cb=0.3)
    eng = StageEngine(p)
    iterations = []
    crossing = eng._crossing_rows

    def counted(at, coeffs, r, span, t, first=None):
        calls = [0]

        def count(fn):
            def evaluate(*args):
                calls[0] += 1
                return fn(*args)
            return evaluate

        out = crossing(count(at), coeffs, r, span, t, first and count(first))
        iterations.append(calls[0])
        return out

    monkeypatch.setattr(eng, "_crossing_rows", counted)
    run_windows(eng, StreamBlock(2024, 0, 1000), p.t_wait)
    assert len(iterations) == 4 and sum(iterations) <= 21, iterations


def test_psi0_table_resolves_the_ringing_norm():
    # the full generator's psi0 norm rings at about delta (|c> is detuned):
    # the table takes a fine piece of _RING_POINTS points a period where it
    # rings, and its worst first guess lands at most half as far from the
    # root as the uniform grid's; the reduced generator's norm does not
    # ring, and its table keeps the uniform grid, as at the exceptional point
    for gamma in (0.05, 0.5):
        p = SystemParams(adiabatic=False, gamma_ca=gamma, gamma_cb=gamma)
        eng = StageEngine(p)
        seg = eng.coarse_curve(p.t_wait)
        grid = seg.grid
        assert grid.n_fine > 0 and 0.0 < grid.t_fine < p.t_wait
        assert grid.t_fine / grid.n_fine <= 2.0 * math.pi / p.delta / _RING_POINTS * 1.01
        uniform = _Grid(p.t_wait, 0, 0.0, 0)
        n2 = eng._node_rows(seg.node[None, None], uniform.times(), 0)[1]
        coarse = _Segment(None, None, seg.n2_end, table=-np.minimum.accumulate(n2), grid=uniform)
        r = np.random.default_rng(8).uniform(seg.n2_end, 1.0 - 1e-8, 300)
        span = np.full(r.size, p.t_wait)
        guess = eng._first_guess_rows(seg, None, r, span)
        roots, _ = eng._crossing_rows(eng._node_rows, seg.node[None, None], r, span, guess)
        worst = np.max(np.abs(eng._first_guess_rows(coarse, None, r, span) - roots))
        assert np.max(np.abs(guess - roots)) <= 0.5 * worst
    for p in (SystemParams(adiabatic=True), EXCEPTIONAL):
        seg = StageEngine(p).coarse_curve(p.t_wait)
        assert seg.grid.n_fine == 0
        assert seg.grid.times().tobytes() == np.linspace(0.0, p.t_wait, _TABLE_POINTS).tobytes()


# -- the scalar window's list paths ---------------------------------------------------
# the scalar window replaces numpy calls on short arrays by the same
# arithmetic on Python lists; each must give the numpy call's bits


def searchsorted_guess(seg, r):
    """_first_guess from a norm table, on numpy's searchsorted, at the time
    the table's grid gives its fractional index."""
    table = seg.table
    k = min(max(int(np.searchsorted(table, -r)), 1), table.size - 1)
    above, below = -float(table[k - 1]), -float(table[k])
    frac = min(max((above - r) / (above - below), 0.0), 1.0) if above > below else 0.5
    return seg.grid.at(k - 1 + frac)


@settings(max_examples=200, deadline=None)
@given(
    # squared norms, made monotone as coarse_curve makes them; repeats give flat runs
    n2=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
                min_size=1, max_size=40),
    span=st.floats(1e-3, 300.0),
    u=st.floats(0.0, 1.0),
    on_entry=st.booleans(),
    data=st.data(),
)
def test_first_guess_bisects_as_searchsorted(n2, span, u, on_entry, data):
    table = -np.minimum.accumulate(np.array([1.0] + n2))
    # r on a table entry is a tie for the search
    r = -data.draw(st.sampled_from(table.tolist())) if on_entry else u
    # the table's last len(n2) intervals, n_fine of them on the fine piece
    # of the grid and the others on the coarse linspace's end
    n_fine = data.draw(st.integers(0, len(n2)))
    k0 = _TABLE_POINTS - 1 - (len(n2) - n_fine)
    grid = _Grid(span, n_fine, float(np.linspace(0.0, span, _TABLE_POINTS)[k0]), k0)
    assert grid.times().size == table.size
    seg = _Segment(None, None, float(-table[-1]), table=table, table_list=table.tolist(),
                   grid=grid)
    eng = StageEngine(EXCEPTIONAL)
    assert eng._first_guess(seg, r, span) == searchsorted_guess(seg, r)


def test_first_guess_on_the_psi0_table_bisects_as_searchsorted():
    eng = StageEngine(SystemParams(adiabatic=False, gamma_ca=0.3, gamma_cb=0.3))
    span = eng.params.t_wait
    seg = eng.coarse_curve(span)
    for r in np.concatenate((-seg.table, RNG.uniform(seg.n2_end, 1.0, 200))).tolist():
        assert eng._first_guess(seg, r, span) == searchsorted_guess(seg, r)


def searchsorted_pick(weights, u):
    return min(int(np.searchsorted(np.cumsum(weights), u, side="right")), weights.size - 1)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 1e-300])),
                     min_size=1, max_size=8),
    frac=st.floats(0.0, 1.0),
    on_edge=st.booleans(),
    data=st.data(),
)
@example(weights=[0.0, 0.25, 0.0, 0.25], frac=0.5, on_edge=False, data=None)
@example(weights=[0.0, 0.0, 0.5], frac=0.0, on_edge=False, data=None)
def test_channel_pick_is_searchsorted_on_the_cumsum(weights, frac, on_edge, data):
    w = np.array(weights)
    assume(w.sum() > 0.0)
    # u on a partial sum is a tie; frac = 1 puts u on the pairwise total
    u = data.draw(st.sampled_from(np.cumsum(w).tolist())) if on_edge else frac * w.sum()
    assert _pick(w, u) == searchsorted_pick(w, u)


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def channel_uniform(self):
        return self.u


@settings(max_examples=40, deadline=None)
@given(t_prep=st.floats(0.5, 50.0), jumped=st.booleans(),
       u=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.5])))
def test_collapse_picks_from_the_spont_set_as_searchsorted(t_prep, jumped, u):
    eng = StageEngine(SystemParams(adiabatic=False, gamma_ca=0.4, gamma_cb=0.2, eta=0.6))
    assert len(eng.ops) == 8   # D1, D2, both LOST, four SPONT
    # psi0 has no jump weight; the no-jump state after t_prep has
    psi = eng._segment(eng.psi0.amplitudes, t_prep).end
    if jumped:   # a state after one spontaneous decay
        psi = eng.ops[eng.tags.index(ChannelTag.SPONT_A_ION1)] @ psi
    psi = psi / np.linalg.norm(psi)
    amps = np.stack(eng.ops) @ psi
    weights = np.einsum("ij,ij->i", amps.conj(), amps).real
    want = searchsorted_pick(weights, u * weights.sum())
    tag, post = eng._collapse(psi, _FixedDraw(u))
    assert tag is eng.tags[want]
    ref = eng.ops[want] @ psi
    assert post.tobytes() == (ref / math.sqrt(np.vdot(ref, ref).real)).tobytes()


def dense_weights(eng, psi):
    """|L_k psi|^2 of each row of psi and channel k, from the dense operators."""
    amps = np.einsum("kij,nj->nki", np.stack(eng.ops), psi)
    return np.einsum("nki,nki->nk", amps.conj(), amps).real


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(0.0, 1.0), lam=st.floats(0.2, 5.0), gamma=st.floats(0.0, 0.5),
       n_max=st.sampled_from([1, 2]), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       support=st.floats(0.0, 1.0))
@example(eta=1.0, lam=1.0, gamma=0.0, n_max=1, rows=1, seed=0, support=1.0)
@example(eta=0.0, lam=3.0, gamma=0.5, n_max=2, rows=4, seed=1, support=0.2)
@example(eta=0.0, lam=1.0, gamma=5e-324, n_max=1, rows=2, seed=2, support=0.25)
def test_channel_weights_are_the_dense_ones(eta, lam, gamma, n_max, rows, seed, support):
    # <psi|L_k^dag L_k|psi> from the nonzero entries of L_k^dag L_k against
    # |L_k psi|^2, on states whose amplitudes are zero outside a random
    # support: to 1e-13 of the state's total weight, never negative, 0 for a
    # channel whose operator meets only zero amplitudes (L_k psi = 0), and
    # nonzero wherever |L_k psi|^2 is a normal float; below that, at a
    # subnormal gamma, either of the two may round to 0 and the other not
    p = SystemParams(adiabatic=False, gamma_ca=gamma, gamma_cb=gamma / 3, eta=eta, lam=lam,
                     n_max=n_max)
    eng = StageEngine(p)
    gen = np.random.default_rng(seed)
    psi = (gen.normal(size=(rows, eng.psi0.dim)) + 1j * gen.normal(size=(rows, eng.psi0.dim)))
    psi *= gen.random(psi.shape) < support
    # and the states the sampler meets: psi0, and the no-jump state after a while
    psi = np.concatenate((psi, [eng.psi0.amplitudes, eng._segment(eng.psi0.amplitudes, 3.0).end]))
    got, want = eng._weights(psi), dense_weights(eng, psi)
    assert got.shape == want.shape and (got >= 0.0).all()
    assert np.all(np.abs(got - want) <= 1e-13 * want.sum(axis=1, keepdims=True))
    dark = ~np.einsum("kij,nj->nki", np.stack(eng.ops), psi).any(axis=2)
    normal = want >= np.finfo(float).tiny
    assert (got[dark] == 0.0).all() and (got[normal] > 0.0).all()
    # a lone row keeps its bytes; one state, as the scalar collapse weighs it,
    # meets the same bounds
    for i in range(len(psi)):
        assert eng._weights(psi[i : i + 1]).tobytes() == got[i : i + 1].tobytes()
        one = eng._weights(psi[i])
        assert (one >= 0.0).all() and (one[dark[i]] == 0.0).all() and (one[normal[i]] > 0.0).all()
        assert np.all(np.abs(one - want[i]) <= 1e-13 * want[i].sum())


@pytest.mark.parametrize("n_max", [1, 2])
def test_channel_weights_of_a_row_do_not_depend_on_the_stack(n_max):
    # as _rows promises: a real product of Re and Im parts (dgemm) fails
    # this above a few hundred rows
    eng = StageEngine(SystemParams(adiabatic=False, gamma_ca=0.3, gamma_cb=0.2, eta=0.5,
                                   lam=3.0, n_max=n_max))
    gen = np.random.default_rng(5)
    psi = gen.normal(size=(3000, eng.psi0.dim)) + 1j * gen.normal(size=(3000, eng.psi0.dim))
    lone = np.concatenate([eng._weights(psi[i : i + 1]) for i in range(40)])
    for n in (2, 3, 40, 257, 1000, 3000):
        assert eng._weights(psi[:n])[:40].tobytes() == lone[:n].tobytes(), n


@pytest.mark.parametrize("n_max", [1, 2])
def test_a_channel_dark_by_cancellation_weighs_at_most_its_rounding(n_max):
    # one photon shared evenly by the two cavities: at lam = 1, D2 ~ c1 - c2
    # annihilates it, but the terms of <psi|D2^dag D2|psi> cancel only to
    # rounding, about half the time below 0; the clamp holds those at 0
    eng = StageEngine(SystemParams(adiabatic=False, gamma_ca=0.2, eta=0.7, n_max=n_max))
    gen = np.random.default_rng(n_max)
    psi = np.zeros((200, eng.psi0.dim), dtype=complex)
    for x in "abc":
        for y in "abc":
            amp = gen.normal(size=200) + 1j * gen.normal(size=200)
            for photons in ((1, 0), (0, 1)):
                psi[:, BasisIndex(x, y, *photons).flatten(eng.params.dims)] = amp
    w = eng._weights(psi)
    dark = w[:, [eng.tags.index(ChannelTag.D2), eng.tags.index(ChannelTag.LOST_D2)]]
    assert (w >= 0.0).all() and (dark == 0.0).any()
    assert np.all(dark <= 1e-13 * w.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("p", [SystemParams(adiabatic=False, gamma_ca=0.3, gamma_cb=0.1, eta=0.6),
                               SystemParams(adiabatic=True, n_max=2, lam=2.0)],
                         ids=["full", "reduced-n2"])
def test_jump_rates_act_as_their_diagonals(p):
    # sum L^dag L and the node's share of it are diagonal, and their
    # elementwise products are the dense ones, on stacks of any height and
    # on one state, and so are the slopes and the per-step probabilities
    # built on them; the only byte that may differ is the sign of a zero,
    # which BLAS's sum of +0 terms drops
    p = p.with_(dt=1e-4)   # per-step probabilities below P_STEP_MAX
    eng = StageEngine(p)
    j = node_jump_rate(p)
    assert np.array_equal(np.diag(eng._j), j) and np.array_equal(np.diag(eng._total), eng.total_op)
    gen = np.random.default_rng(7)

    def same(a, b):
        assert (a + 0.0).tobytes() == (b + 0.0).tobytes()

    for n in (1, 2, 3, 17, 650, 5000):
        psi = gen.normal(size=(n, eng.psi0.dim)) + 1j * gen.normal(size=(n, eng.psi0.dim))
        psi[:, ::5] = 0.0
        phi = gen.normal(size=(n, j.shape[0])) + 1j * gen.normal(size=(n, j.shape[0]))
        same(psi * eng._total, _rows(psi, eng.total_op))
        same(psi * eng._total, psi @ eng.total_op.T)   # the fixed sampler's whole runs
        same(phi * eng._j, _rows(phi, j))
        same(eng._total * psi[0], eng.total_op @ psi[0])
        same(eng._j * phi[0], j @ phi[0])
        t = gen.random(n) * 5.0
        x, n2, slope = eng._pair_rows(psi, t)
        same(slope, -np.einsum("ij,ij->i", x.conj(), _rows(x, eng.total_op)).real)
        same(eng._pvals(x, n2),
             p.dt * np.einsum("ij,ij->i", x.conj(), x @ eng.total_op.T).real / n2)
        x, _, slope = eng._node_rows(eng._node0[None, None], t)
        x = x[:, 0]
        s = np.einsum("ij,ij->i", x.conj(), x).real
        same(slope, -2.0 * s * np.einsum("ij,ij->i", x.conj(), _rows(x, j)).real)
        x, _, slope = eng._pair_at(psi[0], t[0])
        same(slope, -np.vdot(x, eng.total_op @ x).real)
        x, _, slope = eng._node_at(eng._node0, t[0])
        same(slope, -2.0 * np.vdot(x, x).real * np.vdot(x, j @ x).real)


@settings(max_examples=20, deadline=None)
@given(t_max=st.floats(0.5, 300.0), copy=st.booleans())
def test_psi0_segment_is_cached_by_window_length(t_max, copy):
    eng = StageEngine(SystemParams(adiabatic=True))
    # a window from any other start state leaves the cache alone, psi0 times
    # a phase too (equal as a state, not bit for bit); one from psi0, or a
    # copy of it, finds the psi0 segment there
    other = basis_state(BasisIndex("a", "a", 1, 0), eng.params.dims)
    for psi in (other, 1j * eng.psi0.amplitudes):
        run_until_click(psi, eng, RngStream(0, 0), t_max, sampler="fast")
    assert eng._coarse_cache == {}
    psi0 = eng.psi0.amplitudes.copy() if copy else eng.psi0
    run_until_click(psi0, eng, RngStream(0, 0), t_max, sampler="fast")
    seg = eng._coarse_cache[t_max]
    assert eng.coarse_curve(t_max) is seg and seg.node is not None
    # another length misses it
    longer = eng.coarse_curve(2.0 * t_max)
    assert longer is not seg and longer.n2_end < seg.n2_end
    assert eng.coarse_curve(t_max) is seg and len(eng._coarse_cache) == 2


@pytest.mark.parametrize("copy", [False, True])
def test_fixed_curve_is_cached_for_psi0_alone(copy):
    # the fixed-step window follows the same rule: only a window from psi0,
    # or a copy of it, replays (and caches) the curve of its start state
    eng = StageEngine(SystemParams(adiabatic=True))
    other = basis_state(BasisIndex("a", "b", 0, 0), eng.params.dims)
    for psi in (other, 1j * eng.psi0.amplitudes):
        run_until_click(psi, eng, RngStream(0, 0), 30.0, sampler="fixed")
    assert eng._fixed_cache == {}
    psi0 = eng.psi0.amplitudes.copy() if copy else eng.psi0
    run_until_click(psi0, eng, RngStream(0, 0), 30.0, sampler="fixed")
    assert list(eng._fixed_cache) == [(eng.psi0.amplitudes.tobytes(), 3000)]


# -- batched windows ----------------------------------------------------------------

CROSSING_TOL = 1e-9   # per crossing: the bar the crossing tests above hold it to


def stage2_windows(eng, block):
    """The stage-2 stack of a protocol chunk: the heralded rows of block's
    herald windows and their phase-gated herald states, as start states."""
    first = run_windows(eng, block, eng.params.t_wait)
    return np.flatnonzero(first.channel >= 0), eng.phase_diag * first.state


def assert_batch_matches_scalar_windows(p, seed, n, stage=0, sampler="fast", shared=None):
    """run_windows against one scalar run_until_click per window on the same
    streams.  The fast sampler's: equal decisions, click times within the
    crossing tolerance and fidelities within 1e-12; the fixed sampler's:
    equal channels, click times, jump counts and post-click state bytes.
    Stage 0 is every stream's herald window from psi0, or from the state
    shared if it is given; stage 1 the second window of every heralded
    stream from its phase-gated herald state."""
    eng = StageEngine(p)
    block = StreamBlock(seed, 0, n)
    if stage == 0:
        rows, t_max = np.arange(n), p.t_wait
        start = None if shared is None else np.tile(shared, (n, 1))
    else:
        (rows, start), t_max = stage2_windows(eng, block), p.t_wait2
    batch = run_windows(eng, block, t_max, stage=stage, rows=rows, start=start, sampler=sampler)
    assert batch.channel.shape == rows.shape
    assert batch.state.shape == ((batch.channel >= 0).sum(), eng.psi0.dim)
    states = dict(zip(np.flatnonzero(batch.channel >= 0), batch.state))
    for i, row in enumerate(rows):
        psi = eng.psi0 if start is None else start[i]
        res = run_until_click(psi, eng, block.stream(row).for_stage(stage), t_max,
                              sampler=sampler)
        assert batch.jumps[i] == len(res.events)
        if not res.clicked:
            assert batch.channel[i] == -1 and math.isnan(batch.time[i])
            continue
        assert eng.tags[batch.channel[i]] is res.tag
        if sampler == "fixed":
            assert batch.time[i] == res.time
            assert states[i].tobytes() == res.state.amplitudes.tobytes()
            continue
        assert abs(batch.time[i] - res.time) <= CROSSING_TOL * len(res.events)
        fid = fidelity_to_target(StateVector(states[i], p.dims), res.tag)
        assert abs(fid - fidelity_to_target(res.state, res.tag)) <= 1e-12
    return batch


@settings(max_examples=40, deadline=None)
@given(
    adiabatic=st.booleans(),
    gamma=st.floats(0.0, 0.5),
    eta=st.floats(0.0, 1.0),
    lam=st.floats(0.2, 5.0),
    # 0, the usual range, and within 2e-3 of the reduced generator's
    # exceptional point, where both evaluators are drawn
    kappa=st.one_of(st.just(0.0), st.floats(0.5, 20.0), st.floats(0.0998, 0.1002)),
    t_wait=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
    # node states of 3 (n_max + 1) levels
    n_max=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**64),
)
@example(adiabatic=True, gamma=0.0, eta=0.7, lam=0.5, kappa=0.1, t_wait=20.0, n_max=1, seed=1)
@example(adiabatic=False, gamma=0.5, eta=0.3, lam=2.0, kappa=10.0, t_wait=0.0, n_max=1, seed=2)
@example(adiabatic=False, gamma=0.4, eta=1.0, lam=1.0, kappa=0.0, t_wait=100.0, n_max=1, seed=3)
@example(adiabatic=False, gamma=0.4, eta=1.0, lam=0.7, kappa=10.0, t_wait=100.0, n_max=2, seed=4)
@example(adiabatic=True, gamma=0.0, eta=0.6, lam=1.0, kappa=0.1, t_wait=20.0, n_max=2, seed=5)
def test_herald_batch_matches_scalar_windows(adiabatic, gamma, eta, lam, kappa, t_wait, n_max,
                                             seed):
    # the reduced generator has no |c> level to decay from
    gamma = 0.0 if adiabatic else gamma
    p = SystemParams(adiabatic=adiabatic, gamma_ca=gamma, gamma_cb=gamma, eta=eta, lam=lam,
                     kappa=kappa, t_wait=t_wait, n_max=n_max)
    if kappa == 0.1 and adiabatic:
        assert not StageEngine(p).spectral
    assert_batch_matches_scalar_windows(p, seed, 40)


def test_herald_batch_draws_past_the_first_block():
    # long windows with frequent spontaneous decays: some rows take more than
    # two Philox blocks of step and channel draws
    p = SystemParams(adiabatic=False, gamma_ca=0.5, gamma_cb=0.5, eta=0.5, t_wait=1000.0)
    batch = assert_batch_matches_scalar_windows(p, 3, 60)
    assert batch.jumps.max() > 2 * HEAD
    assert (batch.channel >= 0).sum() > 0


LOST = (ChannelTag.LOST_D1, ChannelTag.LOST_D2)


@pytest.mark.parametrize("p", [SystemParams(adiabatic=False, gamma_ca=0.5, gamma_cb=0.5),
                               SystemParams(adiabatic=False, gamma_ca=0.5, gamma_cb=0.5, eta=0.5),
                               EXCEPTIONAL.with_(eta=0.6)], ids=["spectral", "mixed", "expm"])
def test_herald_batch_rows_do_not_depend_on_the_block(p):
    eng = StageEngine(p)
    block = StreamBlock(77, 0, 2000)
    whole = run_windows(eng, block, p.t_wait)
    # the whole block crosses as one stack of hundreds of rows, and some go on
    # after an unrecorded jump: on the node after a spontaneous decay, in the
    # pair space after a lost photon, in one block when both happen
    assert (whole.jumps > 0).sum() > 300 and (whole.jumps > 1).sum() > 0
    clicked = np.flatnonzero(whole.channel >= 0)
    # a lone stream that jumps goes through numpy's one-row (gemv) products,
    # and so does one that a lost photon moved to the pair space
    lone = [(i, i + 1) for i in np.flatnonzero(whole.jumps > 0)[:4]]
    if p.eta < 1.0:
        lost = [i for i in np.flatnonzero(whole.jumps > 1)
                if any(e.tag in LOST for e in run_until_click(
                    eng.psi0, eng, block.stream(i), p.t_wait, sampler="fast").events)]
        assert len(lost) >= 2
        lone += [(i, i + 1) for i in lost[:2]]
    for lo, hi in [(0, 60), (13, 41), (58, 60), (250, 1777), (1999, 2000)] + lone:
        part = run_windows(eng, StreamBlock(77, lo, hi), p.t_wait)
        for got, want in zip(part[:3], whole[:3]):
            assert got.tobytes() == want[lo:hi].tobytes(), (lo, hi)
        assert part.state.tobytes() == whole.state[(lo <= clicked) & (clicked < hi)].tobytes()


@settings(max_examples=30, deadline=None)
@given(
    adiabatic=st.booleans(),
    gamma=st.floats(0.0, 0.5),
    eta=st.floats(0.0, 1.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    # the usual range, and within 2e-3 of the reduced generator's
    # exceptional point, where both evaluators are drawn
    kappa=st.one_of(st.floats(0.5, 20.0), st.floats(0.0998, 0.1002)),
    t_wait2=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
    # node states of 3 (n_max + 1) levels
    n_max=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**64),
)
# the exceptional point, where the pair space is evaluated by the node's expm
@example(adiabatic=True, gamma=0.0, eta=0.7, phi=math.pi, kappa=0.1, t_wait2=20.0, n_max=1,
         seed=3)
# every window times out at once, and none is heralded
@example(adiabatic=False, gamma=0.3, eta=0.6, phi=0.0, kappa=1.0, t_wait2=0.0, n_max=1, seed=4)
@example(adiabatic=False, gamma=0.3, eta=0.0, phi=0.0, kappa=1.0, t_wait2=100.0, n_max=1, seed=5)
@example(adiabatic=False, gamma=0.3, eta=0.6, phi=1.0, kappa=1.0, t_wait2=100.0, n_max=2, seed=6)
def test_stage2_batch_matches_scalar_windows(adiabatic, gamma, eta, phi, kappa, t_wait2, n_max,
                                             seed):
    # the reduced generator has no |c> level to decay from
    gamma = 0.0 if adiabatic else gamma
    p = SystemParams(adiabatic=adiabatic, gamma_ca=gamma, gamma_cb=gamma, eta=eta, phi=phi,
                     kappa=kappa, t_wait2=t_wait2, n_max=n_max)
    if kappa == 0.1 and adiabatic:
        assert not StageEngine(p).spectral
    batch = assert_batch_matches_scalar_windows(p, seed, 200, stage=1)
    if eta == 0.0:
        assert batch.channel.size == 0
    if t_wait2 == 0.0:
        assert not batch.jumps.any() and (batch.channel == -1).all()


# what StageEngine builds in the pair space on first use
PAIR_MACHINERY = ("_v", "_v_inv", "_w_pairs", "_pair_terms", "h_eff", "channels", "ops",
                  "total_op", "_total", "propagator", "phase_diag")


@pytest.mark.parametrize("adiabatic, gamma", [(False, 0.5), (True, 0.0)])
def test_product_windows_never_build_the_pair_space(adiabatic, gamma):
    # with eta = 1 every herald window stays a product of node states until
    # its click, and only the clicks are lifted; a lost photon entangles the
    # nodes, and its row goes on in the pair space
    p = SystemParams(adiabatic=adiabatic, gamma_ca=gamma, gamma_cb=gamma, t_wait=300.0)
    eng = StageEngine(p)
    batch = run_windows(eng, StreamBlock(4, 0, 2000), p.t_wait)
    assert (batch.channel >= 0).sum() > 100 and (batch.jumps > 1).any() == (gamma > 0.0)
    assert not set(PAIR_MACHINERY) & set(vars(eng))
    eng = StageEngine(p.with_(eta=0.5))
    batch = run_windows(eng, StreamBlock(4, 0, 2000), p.t_wait)
    assert went_on(batch) > 0
    assert {"_v", "_v_inv", "_pair_terms", "h_eff", "ops"} <= set(vars(eng))


def test_only_rows_a_lost_photon_hit_collapse_in_the_pair_space(monkeypatch):
    # every other collapse is on the node: the pair collapse sees exactly the
    # jumps that follow a row's first lost photon in the scalar reference
    p = SystemParams(adiabatic=False, gamma_ca=0.5, gamma_cb=0.5, eta=0.5)
    eng = StageEngine(p)
    block = StreamBlock(8, 0, 600)
    seen = []
    collapse = eng._collapse_rows

    def spy(psi, u):
        seen.append(len(psi))
        return collapse(psi, u)

    monkeypatch.setattr(eng, "_collapse_rows", spy)
    batch = run_windows(eng, block, p.t_wait)
    after_lost = 0
    for i in range(600):
        events = run_until_click(eng.psi0, eng, block.stream(i), p.t_wait, sampler="fast").events
        first = next((k for k, e in enumerate(events) if e.tag in LOST), None)
        after_lost += 0 if first is None else len(events) - first - 1
    assert sum(seen) == after_lost > 0
    assert batch.jumps.sum() > 2 * after_lost


def dense_product_weights(eng, a, b):
    return dense_weights(eng, np.stack([two_nodes(x, y) for x, y in zip(a, b)]))


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(0.0, 1.0), lam=st.floats(0.2, 5.0), gamma=st.floats(0.0, 0.5),
       n_max=st.sampled_from([1, 2]), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       support=st.floats(0.0, 1.0))
@example(eta=1.0, lam=1.0, gamma=0.0, n_max=1, rows=1, seed=0, support=1.0)
@example(eta=0.0, lam=3.0, gamma=0.5, n_max=2, rows=4, seed=1, support=0.2)
@example(eta=0.0, lam=1.0, gamma=5e-324, n_max=1, rows=1, seed=1, support=1.0)
def test_product_weights_are_the_dense_ones(eta, lam, gamma, n_max, rows, seed, support):
    # the weights of two_nodes(a, b) from node populations against |L_k psi|^2
    # in the pair space, a and b each inside one excitation block (as every
    # node state the sampler meets is): to 1e-13 of the total weight, never
    # negative, 0 for a channel whose operator meets only zero amplitudes
    # (L_k psi = 0), and nonzero wherever |L_k psi|^2 is a normal float;
    # below that, at a subnormal gamma, either of the two may round to 0 and
    # the other not
    p = SystemParams(adiabatic=False, gamma_ca=gamma, gamma_cb=gamma / 3, eta=eta, lam=lam,
                     n_max=n_max)
    eng = StageEngine(p)
    gen = np.random.default_rng(seed)
    d = eng._h.shape[0]
    ab, blocks = block_states(gen, (2, rows), n_max)
    ab *= gen.random(ab.shape) < support
    # no zero node: the first state of its block
    first = np.argmax(excitation_number(n_max) == blocks[..., None], axis=-1)
    ab[(*np.indices(blocks.shape), first)] += 1.0
    # and the node states the sampler meets: a0, and the no-jump state after a while
    a0 = np.eye(d)[0]
    phi = eng._node_rows(eng._node0[None, None], np.array([3.0]))[0][0, 0]
    a = np.concatenate((ab[0], [a0, phi, phi]))
    b = np.concatenate((ab[1], [a0, phi, a0]))
    a, b = (x / np.linalg.norm(x, axis=1, keepdims=True) for x in (a, b))
    got, want = eng._product_weights(np.stack((a, b), axis=1)), dense_product_weights(eng, a, b)
    assert got.shape == want.shape and (got >= 0.0).all()
    assert np.all(np.abs(got - want) <= 1e-13 * want.sum(axis=1, keepdims=True))
    psi = np.stack([two_nodes(x, y) for x, y in zip(a, b)])
    dark = ~np.einsum("kij,nj->nki", np.stack(eng.ops), psi).any(axis=2)
    assert (got[dark] == 0.0).all() and (got[want >= np.finfo(float).tiny] > 0.0).all()
    # a lone row keeps its bytes, and a row two_nodes(a, a) carried as one
    # node state (as a row from psi0 is) has those of the pair (a, a)
    for i in range(len(a)):
        one = np.stack((a[i : i + 1], b[i : i + 1]), axis=1)
        assert eng._product_weights(one).tobytes() == got[i : i + 1].tobytes()
    same = np.stack((a, a), axis=1)
    assert eng._product_weights(a[:, None]).tobytes() == eng._product_weights(same).tobytes()


# decay, unequal decay, lost photons, two photons in a long window, the
# reduced generator, its exceptional point (expm, not the eigenbasis) and a
# strong drive
BLOCK_REGIMES = {
    "gamma": IDEAL.with_(gamma_ca=0.3, gamma_cb=0.3),
    "unequal-gamma": IDEAL.with_(gamma_ca=0.1, gamma_cb=0.5),
    "eta": IDEAL.with_(gamma_ca=0.3, gamma_cb=0.3, eta=0.7),
    "n_max-2": IDEAL.with_(gamma_ca=0.3, gamma_cb=0.3, n_max=2, t_wait=1000.0),
    "reduced": SystemParams(adiabatic=True, eta=0.6),
    "exceptional": EXCEPTIONAL.with_(t_wait=100.0),
    "strong-drive": IDEAL.with_(omega=5.0, delta=10.0, gamma_ca=0.3, gamma_cb=0.3),
}


@pytest.mark.parametrize("name", BLOCK_REGIMES)
def test_product_rows_keep_one_excitation_number_per_node(name, monkeypatch):
    # the law _product_weights rests on: every node state it weighs in a
    # window from psi0 lies inside one excitation block, with exact zeros in
    # the others, so the detectors' cross term it leaves out is exactly 0
    p = BLOCK_REGIMES[name]
    eng = StageEngine(p)
    assert eng.spectral == (name != "exceptional")
    seen = []
    weights = eng._product_weights

    def spy(x):
        seen.append(x.reshape(-1, x.shape[-1]))
        return weights(x)

    monkeypatch.setattr(eng, "_product_weights", spy)
    run_windows(eng, StreamBlock(7, 0, 3000), p.t_wait)
    states = np.concatenate(seen)
    number = excitation_number(p.n_max)
    blocks = np.stack([(states[:, number == k] != 0.0).any(axis=1) for k in np.unique(number)])
    assert (blocks.sum(axis=0) == 1).all()
    print(f"{name}: {len(states)} node states in {len(seen)} collapse rounds, "
          f"each inside one excitation block")


@pytest.mark.parametrize("n_max", [1, 2])
def test_product_weights_of_a_row_do_not_depend_on_the_stack(n_max):
    eng = StageEngine(SystemParams(adiabatic=False, gamma_ca=0.3, gamma_cb=0.2, eta=0.5,
                                   lam=3.0, n_max=n_max))
    gen = np.random.default_rng(5)
    d = eng._h.shape[0]
    a, b = gen.normal(size=(2, 3000, d)) + 1j * gen.normal(size=(2, 3000, d))
    ab = np.stack((a, b), axis=1)
    lone = np.concatenate([eng._product_weights(ab[i : i + 1]) for i in range(40)])
    for n in (2, 3, 40, 257, 1000, 3000):
        assert eng._product_weights(ab[:n])[:40].tobytes() == lone[:n].tobytes(), n


@pytest.mark.parametrize("n_max", [1, 2])
def test_product_collapse_is_the_pair_collapse(n_max):
    # the channel and the post-jump state of two_nodes(a, b), on the node,
    # a and b each inside one excitation block, against _collapse_rows on
    # the lifted state: equal channels, and post states within 1e-14
    # (lifted, or as node pairs after a local jump)
    p = SystemParams(adiabatic=False, gamma_ca=0.4, gamma_cb=0.2, eta=0.6, n_max=n_max)
    eng = StageEngine(p)
    gen = np.random.default_rng(n_max)
    x, blocks = block_states(gen, (2000, 2), n_max)
    # each node state inside one excitation block; not both in the dark |b, 0>
    x = x[(blocks >= 0).any(axis=1)]
    u = gen.random(len(x))
    idx, kept, lifted = eng._collapse_products(x, u)
    unit = x / np.linalg.norm(x, axis=2, keepdims=True)
    want_idx, want_post = eng._collapse_rows(eng._products(unit[:, 0], unit[:, 1]), u)
    assert np.array_equal(idx, want_idx) and len(set(idx.tolist())) == len(eng.tags)
    up = eng._lifted[idx]
    assert np.array_equal(up, [t.recorded or t in LOST for t in np.array(eng.tags)[idx]])
    assert np.max(np.abs(lifted - want_post[up])) <= 1e-14
    assert np.max(np.abs(eng._products(kept[:, 0], kept[:, 1]) - want_post[~up])) <= 1e-14
    assert np.allclose(np.linalg.norm(kept, axis=2), 1.0, rtol=0.0, atol=1e-15)


def test_normalizing_by_the_reciprocal_is_the_division():
    # _unit multiplies by the reciprocal norm; numpy's complex-by-real
    # division is the same product (its complex division scales by the
    # reciprocal of the divisor), so the bytes are the division's, up to the
    # sign of a zero: the division adds the imaginary part times 0 to it
    gen = np.random.default_rng(9)
    for n in (1, 2, 3, 17, 300, 5000):
        psi = gen.normal(size=(n, 36)) + 1j * gen.normal(size=(n, 36))
        psi *= np.exp(gen.uniform(-300.0, 300.0, size=(n, 1)))
        psi[:, ::7] = 0.0
        psi.real[:, 1::5] = -0.0
        want = psi / np.sqrt(np.einsum("ij,ij->i", psi.conj(), psi).real)[:, None]
        assert (_unit(psi) + 0.0).tobytes() == (want + 0.0).tobytes()


def went_on(batch):
    """How many windows went on after an unrecorded jump: those with more
    jumps than recorded clicks."""
    return int((batch.jumps > (batch.channel >= 0)).sum())


@pytest.mark.parametrize("adiabatic, gamma", [(False, 0.5), (True, 0.0)])
def test_stage2_batch_goes_on_after_unrecorded_jumps(adiabatic, gamma):
    # enough heralded rows that many windows go on after a lost photon or a
    # spontaneous decay, and many click
    p = SystemParams(adiabatic=adiabatic, gamma_ca=gamma, gamma_cb=gamma, eta=0.5,
                     kappa=1.0, phi=1.0, t_wait2=100.0)
    batch = assert_batch_matches_scalar_windows(p, 1, 1000, stage=1)
    assert went_on(batch) > 20 and (batch.channel >= 0).sum() > 20
    # a spontaneous decay is followed by a second jump
    assert (batch.jumps.max() > 1) == (gamma > 0.0)


def test_fixed_herald_windows_are_the_scalar_ones():
    # from psi0: the shared curve until a row's first jump, its own walk
    # after a spontaneous decay or a lost photon
    p = SystemParams(adiabatic=False, gamma_ca=0.3, gamma_cb=0.3, eta=0.6, omega=2.0)
    batch = assert_batch_matches_scalar_windows(p, 5, 100, sampler="fixed")
    assert (batch.channel >= 0).sum() > 10 and went_on(batch) > 10


def test_fixed_second_windows_are_the_scalar_ones():
    # the heralded rows' windows of 3000 steps, past one replay block, each
    # from its own phase-gated herald state
    p = SystemParams(adiabatic=False, gamma_ca=0.1, gamma_cb=0.1, eta=0.8, omega=5.0,
                     delta=10.0, t_wait=10.0, phi=1.0, t_wait2=30.0)
    batch = assert_batch_matches_scalar_windows(p, 6, 250, stage=1, sampler="fixed")
    assert 20 < batch.channel.size < 250 and (batch.channel >= 0).sum() > 10


def test_fixed_windows_from_one_start_replay_one_curve(monkeypatch):
    # every window starts from one photon state, and the batch replays its
    # curve: the bits of the scalar walk within one replay block (2000
    # steps); a lost photon leaves the row to a walk of its own
    p = frozen_photon_params().with_(eta=0.7, t_wait=0.2)
    photon = photon_state(p).amplitudes
    batch = assert_batch_matches_scalar_windows(p, 12, 300, sampler="fixed", shared=photon)
    assert (batch.channel >= 0).sum() > 100 and went_on(batch) > 20
    eng = StageEngine(p)
    built = []
    fixed_block = eng._fixed_block

    def spy(psi, n_steps):
        built.append(psi.tobytes() == photon.tobytes())
        return fixed_block(psi, n_steps)

    monkeypatch.setattr(eng, "_fixed_block", spy)
    run_windows(eng, StreamBlock(12, 0, 300), p.t_wait, start=np.tile(photon, (300, 1)),
                sampler="fixed")
    assert built.count(True) == 1 and len(built) > 20


def test_windows_reject_an_unknown_sampler():
    eng = StageEngine(SystemParams(adiabatic=True))
    with pytest.raises(ValueError, match="unknown sampler 'exact'"):
        run_windows(eng, StreamBlock(0, 0, 3), 1.0, sampler="exact")
    with pytest.raises(ValueError, match="unknown sampler 'exact'"):
        run_until_click(eng.psi0, eng, RngStream(0, 0), 1.0, sampler="exact")
    # a zero-length window is no reason to pass a bad sampler
    with pytest.raises(ValueError, match="unknown sampler 'exact'"):
        run_windows(eng, StreamBlock(0, 0, 3), 0.0, sampler="exact")
    with pytest.raises(ValueError, match="unknown sampler 'exact'"):
        run_until_click(eng.psi0, eng, RngStream(0, 0), 0.0, sampler="exact")


@pytest.mark.parametrize("p", [SystemParams(adiabatic=False, gamma_ca=0.5, gamma_cb=0.5,
                                            eta=0.5, kappa=1.0, phi=1.0, t_wait2=100.0),
                               EXCEPTIONAL.with_(eta=0.6, phi=1.0)], ids=["spectral", "expm"])
def test_stage2_batch_rows_do_not_depend_on_the_stack(p):
    eng = StageEngine(p)
    block = StreamBlock(77, 0, 2000)
    rows, start = stage2_windows(eng, block)
    whole = run_windows(eng, block, p.t_wait2, stage=1, rows=rows, start=start)
    # hundreds of rows cross as one stack, and some go on after an unrecorded jump
    assert rows.size > 200 and went_on(whole) > 0
    clicked = np.flatnonzero(whole.channel >= 0)
    # a lone row that jumps goes through numpy's one-row (gemv) products
    lone = [(i, i + 1) for i in np.flatnonzero(whole.jumps > 0)[:4]]
    for lo, hi in [(0, 60), (13, 41), (58, 60), (rows.size - 1, rows.size)] + lone:
        part = run_windows(eng, block, p.t_wait2, stage=1, rows=rows[lo:hi], start=start[lo:hi])
        for got, want in zip(part[:3], whole[:3]):
            assert got.tobytes() == want[lo:hi].tobytes(), (lo, hi)
        assert part.state.tobytes() == whole.state[(lo <= clicked) & (clicked < hi)].tobytes()


def test_stage2_batch_takes_a_start_state_per_window():
    eng = StageEngine(SystemParams(adiabatic=True))
    with pytest.raises(ValueError, match="2 start states for 3 windows"):
        run_windows(eng, StreamBlock(0, 0, 3), 1.0, stage=1, start=np.ones((2, eng.psi0.dim)))
    with pytest.raises(ValueError, match="positive norm"):
        run_windows(eng, StreamBlock(0, 0, 1), 1.0, stage=1, start=np.zeros((1, eng.psi0.dim)))


def test_stage2_batch_normalizes_its_start_states():
    # start states of any norm decide as their normalized selves do
    p = SystemParams(adiabatic=True, eta=0.7, phi=1.0, t_wait2=100.0)
    eng = StageEngine(p)
    block = StreamBlock(3, 0, 600)
    rows, start = stage2_windows(eng, block)
    assert rows.size > 20
    want = run_windows(eng, block, p.t_wait2, stage=1, rows=rows, start=start)
    scale = np.geomspace(1e-3, 1e3, rows.size)[:, None]
    got = run_windows(eng, block, p.t_wait2, stage=1, rows=rows, start=start * scale)
    assert got.channel.tolist() == want.channel.tolist()
    assert got.jumps.tolist() == want.jumps.tolist()
    assert np.allclose(got.time, want.time, rtol=0.0, atol=CROSSING_TOL, equal_nan=True)


def test_herald_batch_rejects_a_negative_window():
    with pytest.raises(ValueError, match="t_max"):
        run_windows(StageEngine(IDEAL), StreamBlock(0, 0, 3), -1.0)


@pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf])
def test_windows_reject_a_non_finite_t_max(t_max):
    eng = StageEngine(SystemParams(adiabatic=True))
    for sampler in ("fast", "fixed"):
        with pytest.raises(ValueError, match="t_max"):
            run_until_click(eng.psi0, eng, RngStream(0, 0), t_max, sampler=sampler)
    with pytest.raises(ValueError, match="t_max"):
        run_windows(eng, StreamBlock(1, 0, 1000), t_max)


def test_fixed_window_is_a_whole_number_of_steps():
    # at dt = 0.01, 0.004 used to run zero steps and 0.015 two
    eng = StageEngine(SystemParams(adiabatic=True))
    for t_max in (0.004, 0.015, 1.0 + 1e-6):
        with pytest.raises(ValueError, match="t_max must be a whole number of dt"):
            run_until_click(eng.psi0, eng, RngStream(0, 0), t_max, sampler="fixed")
        run_until_click(eng.psi0, eng, RngStream(0, 0), t_max, sampler="fast")
    # rounding error in t_max is no fault
    res = run_until_click(eng.psi0, eng, RngStream(0, 0), 0.1 + 0.2, sampler="fixed")
    assert not res.clicked
    n = whole_steps(0.1 + 0.2, 0.01, "t_max")
    assert n == 30 and type(n) is int
    with pytest.raises(ParamError, match=r"^T2 must be a whole number of dt = 0.01 steps, "
                                         r"got 0.015$"):
        whole_steps(0.015, 0.01, "T2")


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
    # every window starts from the photon state: the fixed-step ones replay its curve
    start = np.tile(photon_state(p).amplitudes, (1500, 1))
    scale = 1.0 / (2.0 * p.kappa)
    samples = {}
    for seed, sampler in ((50, "fixed"), (60, "fast")):
        batch = run_windows(eng, StreamBlock(seed, 0, 1500), 1.0, start=start, sampler=sampler)
        assert (batch.channel >= 0).all()
        samples[sampler] = batch.time
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
                        IDEAL.t_wait, sampler="fast").clicked
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
                              sampler="fast")
        assert len(res.events) == 1          # photon always collapses exactly once
        recorded += res.clicked
    sd = math.sqrt(eta * (1 - eta) / n)
    assert abs(recorded / n - eta) <= 3 * sd


def test_zero_norm_start_state_rejected():
    # a squared norm that is 0, NaN or infinite (an infinite amplitude, or
    # finite amplitudes whose squares overflow) fails loudly in every entry,
    # on either generator
    for params in (IDEAL, SystemParams(adiabatic=True)):
        eng = StageEngine(params)
        psi0 = eng.psi0.amplitudes
        inf = psi0.copy()
        inf[0] = np.inf
        for bad in (np.zeros(36, dtype=complex), np.full(36, np.nan), inf, 1e200 * psi0):
            for sampler in ("fixed", "fast"):
                with pytest.raises(ValueError, match="positive norm"):
                    run_until_click(bad, eng, RngStream(0, 0), 10.0, sampler=sampler)
                with pytest.raises(ValueError, match="positive norm"):
                    run_windows(eng, StreamBlock(0, 0, 2), 10.0, start=np.stack((psi0, bad)),
                                sampler=sampler)
            with pytest.raises(ValueError, match="positive norm"):
                run_unconditioned(bad, eng, RngStream(0, 0), (1.0,), [identity(params.dims)])


def test_start_state_of_the_wrong_length_rejected():
    # every entry names the length it wants and the one it got, on either
    # generator, before numpy's shape error in the first product
    for params in (IDEAL, SystemParams(adiabatic=True)):
        eng = StageEngine(params)
        for size in (35, 72):
            bad = np.resize(eng.psi0.amplitudes, size)
            msg = f"start state must have 36 amplitudes, got {size}"
            for sampler in ("fixed", "fast"):
                with pytest.raises(ValueError, match=msg):
                    run_until_click(bad, eng, RngStream(0, 0), 10.0, sampler=sampler)
                with pytest.raises(ValueError, match=msg):
                    run_windows(eng, StreamBlock(0, 0, 2), 10.0, start=np.stack((bad, bad)),
                                sampler=sampler)
            with pytest.raises(ValueError, match=msg):
                run_unconditioned(bad, eng, RngStream(0, 0), (1.0,), [identity(params.dims)])


def test_herald_fidelity_by_tag():
    eng = StageEngine(IDEAL)
    sums = {ChannelTag.D1: [], ChannelTag.D2: []}
    for i in range(2500):
        res = run_until_click(initial_state(IDEAL), eng, RngStream(110, i).for_stage(0),
                              IDEAL.t_wait, sampler="fast")
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
        rec = run_protocol(eng, RngStream(120, i))
        if rec.outcome is Outcome.TWO_CLICKS:
            two += 1
            assert rec.second.tag is rec.first.tag
    assert two > 20


def test_protocol_opposite_detector_at_pi():
    p = SystemParams(adiabatic=True, phi=math.pi)
    eng = StageEngine(p)
    two = 0
    for i in range(600):
        rec = run_protocol(eng, RngStream(130, i))
        if rec.outcome is Outcome.TWO_CLICKS:
            two += 1
            assert rec.second.tag is not rec.first.tag
    assert two > 20


def test_protocol_second_photon_nearly_certain():
    p = SystemParams(adiabatic=True)
    eng = StageEngine(p)
    heralds = two = 0
    for i in range(800):
        rec = run_protocol(eng, RngStream(140, i))
        heralds += rec.first.clicked
        two += rec.outcome is Outcome.TWO_CLICKS
    assert heralds > 30
    assert two / heralds >= 0.9


def test_protocol_event_bookkeeping():
    p = SystemParams(gamma_ca=0.2, gamma_cb=0.2, adiabatic=False)
    eng = StageEngine(p)
    seen_two = False
    for i in range(300):
        rec = run_protocol(eng, RngStream(150, i))
        times = [e.time for e in rec.events]
        assert all(0 <= t <= p.t_wait + p.t_wait2 for t in times)
        assert times == sorted(times)
        n_recorded = sum(e.tag.recorded for e in rec.events)
        assert rec.outcome is (Outcome.NO_CLICK, Outcome.ONE_CLICK, Outcome.TWO_CLICKS)[n_recorded]
        if rec.outcome is Outcome.TWO_CLICKS:
            seen_two = True
            assert rec.second.time > rec.first.time
    assert seen_two


@pytest.mark.parametrize("sampler", ["fast", "fixed"])
def test_window_times_count_from_its_opening(sampler):
    # a second window run on its own times its click and collapses from its
    # opening; the protocol record shifts them by the first click, to
    # absolute and sorted times
    p = SystemParams(adiabatic=False, gamma_ca=0.1, gamma_cb=0.1, eta=0.7, phi=1.0,
                     omega=5.0, delta=10.0, t_wait=10.0, t_wait2=20.0)
    eng = StageEngine(p)
    block = StreamBlock(9, 0, 150)
    clicked = 0
    for i in range(150):
        rec = run_protocol(eng, block.stream(i), sampler=sampler)
        if rec.second is None:
            continue
        t0 = rec.first.time
        second = run_until_click(eng.phase_diag * rec.first.state.amplitudes, eng,
                                 block.stream(i).for_stage(1), p.t_wait2, sampler=sampler)
        own = [e.time for e in second.events]
        assert all(0.0 < t <= p.t_wait2 for t in own)
        assert [e.tag for e in rec.second.events] == [e.tag for e in second.events]
        assert [e.time for e in rec.second.events] == [t0 + t for t in own]
        if second.clicked:
            clicked += 1
            assert second.time == own[-1] and rec.second.time == t0 + second.time
        else:
            assert rec.second.time is None
        times = [e.time for e in rec.events]
        assert times == sorted(times) and times[len(rec.first.events) - 1] == t0
    assert clicked >= 3


def test_protocol_reproducible_bitwise():
    p = SystemParams(gamma_ca=0.1, gamma_cb=0.1, adiabatic=False)
    for sampler in ("fast", "fixed"):
        t_wait2 = 200.0 if sampler == "fixed" else p.t_wait2
        pp = p.with_(t_wait2=t_wait2)
        a = [run_protocol(StageEngine(pp), RngStream(160, i), sampler=sampler)
             for i in range(12)]
        b = [run_protocol(StageEngine(pp), RngStream(160, i), sampler=sampler)
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
                                  sampler=sampler)
            if res.clicked:
                ts.append(res.time)
        samples[sampler] = np.asarray(ts)
    assert stats.ks_2samp(samples["fixed"], samples["fast"]).pvalue > 0.01


# -- unconditioned walk -------------------------------------------------------------


def test_unconditioned_repeated_time_fills_every_column():
    # both columns must hold the state at t = 10 (on the fast-sampler walk
    # stream 13 does not jump; test_unconditioned_walk_is_a_chain_of_windows
    # repeats a time on streams that do)
    p = SystemParams(gamma_ca=0.3, gamma_cb=0.3, adiabatic=False)
    eng = StageEngine(p)
    vals = run_unconditioned(eng.psi0, eng, RngStream(5, 13), (10.0, 10.0), [identity(p.dims)])
    assert vals[0, 0] == pytest.approx(1.0) and vals[0, 1] == pytest.approx(1.0)


def test_unconditioned_walk_is_a_chain_of_windows(monkeypatch):
    # over an unsorted grid with t = 0 and a repeated time, on trajectories
    # that jump (some more than once), the walk equals the walk over the
    # sorted unique times bit for bit, and runs as fast-sampler windows
    import homsim.trajectory as trajectory

    jumps = []

    def counted(*args, **kwargs):
        res = run_until_click(*args, **kwargs)
        assert kwargs["sampler"] == "fast"
        jumps[-1] += len(res.events)
        return res

    monkeypatch.setattr(trajectory, "run_until_click", counted)
    p = SystemParams(omega=2.0, kappa=2.0, delta=10.0, gamma_ca=0.3, gamma_cb=0.3,
                     adiabatic=False)
    eng = StageEngine(p)
    obs = [identity(p.dims), OperatorMatrix(eng.total_op, p.dims)]
    for i in range(20):
        jumps.append(0)
        vals = run_unconditioned(eng.psi0, eng, RngStream(40, i), (5.0, 0.0, 2.0, 5.0), obs)
        once = jumps[-1]
        ref = run_unconditioned(eng.psi0, eng, RngStream(40, i), (0.0, 2.0, 5.0), obs)
        assert np.array_equal(vals, ref[:, [2, 0, 1, 2]])
        assert jumps[-1] == 2 * once and ref[0] == pytest.approx(1.0)
        jumps[-1] = once
    assert sum(jumps) >= 10 and max(jumps) >= 2


def test_unconditioned_grid_needs_no_dt_steps():
    # the fast sampler's windows need no dt grid: 0.015 at dt = 0.01 is a time
    eng = StageEngine(SystemParams(adiabatic=True))
    vals = run_unconditioned(eng.psi0, eng, RngStream(0, 0), (0.5, 0.015),
                             [identity(eng.params.dims)])
    assert vals.shape == (1, 2) and vals[0] == pytest.approx(1.0)


def test_unconditioned_rejects_a_non_finite_time():
    eng = StageEngine(IDEAL)
    for grid in ((1.0, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match="t_grid"):
            run_unconditioned(eng.psi0, eng, RngStream(0, 0), grid, [identity(IDEAL.dims)])


def test_unconditioned_rejects_empty_or_negative_grid():
    eng = StageEngine(IDEAL)
    obs = [identity(IDEAL.dims)]
    for grid in ((), (-1.0,), (1.0, -0.5)):
        with pytest.raises(ValueError, match="t_grid"):
            run_unconditioned(eng.psi0, eng, RngStream(0, 0), grid, obs)
