import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from homsim.experiments import fidelity_to_target
from homsim.hilbert import (
    BasisIndex, StateVector, basis_state, embed, fock_destroy, level_transfer,
)
from homsim.model import (
    ChannelTag,
    SystemParams,
    build_h_eff,
    build_h_eff_adiabatic,
    build_hamiltonian,
    build_jump_channels,
    initial_state,
    phase_gate,
    total_jump_operator,
)
from homsim.trajectory import StageEngine
from reference import matrix_exp, unflatten

RNG = np.random.default_rng(77)


def random_params(**fixed):
    base = dict(
        omega=RNG.uniform(0.2, 2.0),
        delta=RNG.uniform(5.0, 40.0),
        kappa=RNG.uniform(0.5, 20.0),
        gamma_ca=RNG.uniform(0.0, 1.0),
        gamma_cb=RNG.uniform(0.0, 1.0),
        eta=RNG.uniform(0.05, 1.0),
        lam=RNG.uniform(0.3, 3.0),
        adiabatic=False,
    )
    base.update(fixed)
    return SystemParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(eta=1.5)
    with pytest.raises(ValueError):
        SystemParams(lam=0.0)
    with pytest.raises(ValueError):
        SystemParams(kappa=-1.0)
    with pytest.raises(ValueError):
        SystemParams(n_max=3)
    with pytest.raises(ValueError):
        SystemParams(gamma_ca=0.1, adiabatic=True)
    with pytest.raises(ValueError, match="^delta"):
        SystemParams(delta=0.0, adiabatic=True)
    with pytest.raises(ValueError, match="^t_wait must"):
        SystemParams(t_wait=-1.0)
    with pytest.raises(ValueError, match="^t_wait2 must"):
        SystemParams(t_wait2=-1.0)
    SystemParams(delta=0.0, adiabatic=False)   # the full generator needs no detuning
    assert SystemParams().reflectance == pytest.approx(0.5)
    p = SystemParams(lam=1.5)
    assert p.reflectance + p.transmittance == pytest.approx(1.0)


def test_hamiltonian_detuning_only():
    p = SystemParams(omega=0.0, delta=7.0, adiabatic=False).with_(g=0.0)
    h = build_hamiltonian(p).entries
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    dims = p.dims
    for flat in range(h.shape[0]):
        lab = unflatten(flat, dims)
        n_c = (lab.ion1 == "c") + (lab.ion2 == "c")
        assert h[flat, flat] == pytest.approx(7.0 * n_c)


def test_hamiltonian_cavity_matrix_element():
    for n_max in (1, 2):
        p = SystemParams(n_max=n_max, adiabatic=False)
        h = build_hamiltonian(p).entries
        dims = p.dims
        for lev2 in "abc":
            for n2 in range(n_max + 1):
                row = BasisIndex("c", lev2, 0, n2).flatten(dims)
                col = BasisIndex("b", lev2, 1, n2).flatten(dims)
                assert h[row, col] == pytest.approx(p.g)


def test_hamiltonian_hermitian():
    for _ in range(5):
        h = build_hamiltonian(random_params()).entries
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_h_eff_reduces_to_h_without_damping():
    p = random_params(kappa=0.0, gamma_ca=0.0, gamma_cb=0.0)
    assert np.array_equal(build_h_eff(p).entries, build_hamiltonian(p).entries)


def test_h_eff_damping_negative_semidefinite():
    p = random_params()
    anti = (build_h_eff(p).entries - build_h_eff(p).entries.conj().T) / 2j
    w = np.linalg.eigvalsh(anti)
    assert w.max() <= 1e-12


def test_channel_hamiltonian_consistency():
    # H_eff - H must equal -(i/2) sum L^dag L for the generated channel set
    for _ in range(20):
        p = random_params()
        gap = (
            build_h_eff(p).entries
            - build_hamiltonian(p).entries
            + 0.5j * total_jump_operator(build_jump_channels(p))
        )
        assert np.max(np.abs(gap)) < 1e-12


def test_adiabatic_first_order_amplitudes():
    p = SystemParams(adiabatic=True)
    h = build_h_eff_adiabatic(p).entries
    dims = p.dims
    aa00 = BasisIndex("a", "a", 0, 0).flatten(dims)
    ba10 = BasisIndex("b", "a", 1, 0).flatten(dims)
    ab01 = BasisIndex("a", "b", 0, 1).flatten(dims)
    j = p.g * p.omega / p.delta
    # (1 - i H t)|aa00> puts -i*j*t on |ba>|10> and |ab>|01>, and
    # (1 - 2i omega^2 t / delta) on |aa>|00>
    col = h[:, aa00]
    assert col[ba10] == pytest.approx(j)
    assert col[ab01] == pytest.approx(j)
    assert col[aa00] == pytest.approx(2.0 * p.omega**2 / p.delta)
    assert np.count_nonzero(col) == 3


def test_adiabatic_g_zero_diagonal():
    p = SystemParams(adiabatic=True, omega=1.3).with_(g=0.0)
    h = build_h_eff_adiabatic(p).entries
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    dims = p.dims
    for flat in range(36):
        lab = unflatten(flat, dims)
        n_a = (lab.ion1 == "a") + (lab.ion2 == "a")
        want = (p.omega**2 / p.delta) * n_a - 1j * p.kappa * (lab.cav1 + lab.cav2)
        assert h[flat, flat] == pytest.approx(want)


def test_adiabatic_c_level_decoupled():
    # no matrix element transfers population into or out of the |c> manifold
    p = SystemParams(adiabatic=True)
    h = build_h_eff_adiabatic(p).entries
    dims = p.dims
    in_c = np.array([
        "c" in (unflatten(f, dims).ion1, unflatten(f, dims).ion2)
        for f in range(36)
    ])
    assert np.max(np.abs(h[np.ix_(in_c, ~in_c)])) == 0.0
    assert np.max(np.abs(h[np.ix_(~in_c, in_c)])) == 0.0


def test_adiabatic_propagation_stays_off_c():
    p = SystemParams(adiabatic=True)
    u = matrix_exp(build_h_eff_adiabatic(p), -1j * 3.0).entries
    psi = initial_state(p).amplitudes
    out = u @ psi
    dims = p.dims
    for flat in range(36):
        lab = unflatten(flat, dims)
        if "c" in (lab.ion1, lab.ion2):
            assert abs(out[flat]) < 1e-12


def test_jump_channels_ideal_case():
    p = SystemParams(eta=1.0, lam=1.0, adiabatic=False)
    ch = build_jump_channels(p)
    assert [c.tag for c in ch] == [ChannelTag.D1, ChannelTag.D2]
    assert all(c.tag.recorded for c in ch)
    from homsim.hilbert import embed, fock_destroy

    c1 = embed(fock_destroy(2), 2, p.dims).entries
    c2 = embed(fock_destroy(2), 3, p.dims).entries
    scale = math.sqrt(2.0 * p.kappa)
    assert np.max(np.abs(ch[0].operator.entries - scale * (c1 + c2) / np.sqrt(2))) < 1e-12
    assert np.max(np.abs(ch[1].operator.entries - scale * (c1 - c2) / np.sqrt(2))) < 1e-12


def test_jump_channels_beam_splitter_conservation():
    from homsim.hilbert import embed, fock_destroy

    for lam in (0.3, 0.75, 1.0, 2.5):
        p = random_params(lam=lam, gamma_ca=0.0, gamma_cb=0.0)
        ch = [c for c in build_jump_channels(p) if c.tag in
              (ChannelTag.D1, ChannelTag.D2, ChannelTag.LOST_D1, ChannelTag.LOST_D2)]
        total = total_jump_operator(ch)
        c1 = embed(fock_destroy(2), 2, p.dims).entries
        c2 = embed(fock_destroy(2), 3, p.dims).entries
        want = 2.0 * p.kappa * (c1.conj().T @ c1 + c2.conj().T @ c2)
        assert np.max(np.abs(total - want)) < 1e-12


def test_jump_channels_balanced_probabilities():
    p = SystemParams(eta=1.0, lam=1.0, adiabatic=False)
    ch = build_jump_channels(p)
    psi = basis_state(BasisIndex("a", "a", 1, 0), p.dims).amplitudes
    w = [float(np.vdot(c.operator.entries @ psi, c.operator.entries @ psi).real) for c in ch]
    assert w[0] == pytest.approx(w[1])


def test_click_fidelity_follows_beam_splitter_geometry():
    # a click on (|ba,10> + |ab,01>)/sqrt2 leaves sqrt(R)|ba> +- sqrt(T)|ab>,
    # whose fidelity to (|ba> +- |ab>)/sqrt2 is (1 + 2 sqrt(RT))/2
    def click_fidelity(lam, tag):
        p = SystemParams(lam=lam)
        psi = (basis_state(BasisIndex("b", "a", 1, 0), p.dims).amplitudes
               + basis_state(BasisIndex("a", "b", 0, 1), p.dims).amplitudes) / math.sqrt(2.0)
        op = next(c.operator.entries for c in build_jump_channels(p) if c.tag is tag)
        out = op @ psi
        return fidelity_to_target(StateVector(out / np.linalg.norm(out), p.dims), tag)

    for lam in (0.5, 0.75, 1.25, 1.5, 2.0):
        r = lam / (1.0 + lam)
        want = (1.0 + 2.0 * math.sqrt(r * (1.0 - r))) / 2.0
        for tag in (ChannelTag.D1, ChannelTag.D2):
            got = click_fidelity(lam, tag)
            assert abs(got - want) <= 1e-12
            assert abs(got - click_fidelity(1.0 / lam, tag)) <= 1e-12


def test_jump_channels_split_and_spont():
    p = random_params(eta=0.6, gamma_ca=0.2, gamma_cb=0.0)
    tags = [c.tag for c in build_jump_channels(p)]
    assert tags == [
        ChannelTag.D1, ChannelTag.D2, ChannelTag.LOST_D1, ChannelTag.LOST_D2,
        ChannelTag.SPONT_A_ION1, ChannelTag.SPONT_A_ION2,
    ]


@pytest.mark.parametrize("gamma", [0.0, 0.2])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
def test_only_detector_clicks_are_recorded(eta, gamma):
    assert {t for t in ChannelTag if t.recorded} == {ChannelTag.D1, ChannelTag.D2}
    p = SystemParams(eta=eta, gamma_ca=gamma, gamma_cb=gamma, adiabatic=False)
    channels = build_jump_channels(p)
    recorded = [c.tag for c in channels if c.tag.recorded]
    assert recorded == ([ChannelTag.D1, ChannelTag.D2] if eta > 0 else [])
    assert len(channels) == len(recorded) + 2 * (eta < 1) + 4 * (gamma > 0)


def test_phase_gate_identity_and_action():
    g0 = phase_gate(0.0)
    assert np.array_equal(g0.entries, np.eye(36))
    dims = (3, 3, 2, 2)
    phi = 1.234
    g = phase_gate(phi)
    amp = np.zeros(36, dtype=complex)
    ba = BasisIndex("b", "a", 0, 0).flatten(dims)
    ab = BasisIndex("a", "b", 0, 0).flatten(dims)
    amp[ba] = amp[ab] = 1 / np.sqrt(2)
    out = g.entries @ amp
    assert out[ba] == pytest.approx(amp[ba])
    assert out[ab] == pytest.approx(np.exp(1j * phi) / np.sqrt(2))


def test_phase_gate_unitary_and_composition():
    phi1, phi2 = 2.1, 5.3
    g1, g2 = phase_gate(phi1).entries, phase_gate(phi2).entries
    assert np.max(np.abs(g1.conj().T @ g1 - np.eye(36))) < 1e-15
    comp = phase_gate((phi1 + phi2) % (2 * math.pi)).entries
    assert np.max(np.abs(g1 @ g2 - comp)) < 1e-12


def test_initial_state():
    p = SystemParams()
    amp = initial_state(p).amplitudes
    assert np.vdot(amp, amp) == pytest.approx(1.0)
    from homsim.hilbert import embed, fock_destroy, level_transfer

    for cav in (2, 3):
        c = embed(fock_destroy(2), cav, p.dims).entries
        assert np.vdot(amp, c.conj().T @ c @ amp) == pytest.approx(0.0)
    paa = sum(
        embed(level_transfer("a", "a"), i, p.dims).entries for i in (0, 1)
    )
    assert np.vdot(amp, paa @ amp) == pytest.approx(2.0)


# -- the node builder against the embedded operators ---------------------------

EXCEPTIONAL_KAPPA = 0.1   # 2 g omega / delta: the reduced node generator is defective


def embedded_operators(p):
    """The two-node operators built as before the node builder: every
    single-subsystem operator embedded in (ion1, ion2, cav1, cav2) by
    hilbert.embed, then summed per ion.  The reference the derived
    operators are held to."""
    dims = p.dims

    def ion(to, frm, i):
        return embed(level_transfer(to, frm), i, dims).entries

    cav = [embed(fock_destroy(p.n_max + 1), 2 + i, dims).entries for i in (0, 1)]
    h = np.zeros((math.prod(dims),) * 2, dtype=complex)
    h_ad = np.zeros_like(h)
    j = p.g * p.omega / p.delta
    for i, c in enumerate(cav):
        pcb, pca, pab = ion("c", "b", i), ion("c", "a", i), ion("a", "b", i)
        h += p.delta * ion("c", "c", i)
        h += p.g * (pcb @ c + c.conj().T @ pcb.conj().T)
        h += p.omega * (pca + pca.conj().T)
        h_ad += j * (pab @ c + c.conj().T @ pab.conj().T)
        h_ad += (p.g**2 / p.delta) * ion("b", "b", i) + (p.omega**2 / p.delta) * ion("a", "a", i)
        h_ad -= 1j * p.kappa * (c.conj().T @ c)
    h_eff = h.copy()
    for i, c in enumerate(cav):
        h_eff -= 1j * p.kappa * (c.conj().T @ c)
        h_eff -= 1j * (p.gamma_ca + p.gamma_cb) * ion("c", "c", i)
    sr, st = math.sqrt(p.reflectance), math.sqrt(p.transmittance)
    d1, d2 = sr * cav[0] + st * cav[1], st * cav[0] - sr * cav[1]
    rec, lost = math.sqrt(2.0 * p.kappa * p.eta), math.sqrt(2.0 * p.kappa * (1.0 - p.eta))
    channels = []
    if p.eta > 0:
        channels += [(ChannelTag.D1, rec * d1), (ChannelTag.D2, rec * d2)]
    if p.eta < 1:
        channels += [(ChannelTag.LOST_D1, lost * d1), (ChannelTag.LOST_D2, lost * d2)]
    for rate, target, tags in (
        (p.gamma_ca, "a", (ChannelTag.SPONT_A_ION1, ChannelTag.SPONT_A_ION2)),
        (p.gamma_cb, "b", (ChannelTag.SPONT_B_ION1, ChannelTag.SPONT_B_ION2)),
    ):
        if rate > 0:
            amp = math.sqrt(2.0 * rate)
            channels += [(tag, amp * ion(target, "c", i)) for i, tag in enumerate(tags)]
    gate = np.array([np.exp(1j * p.phi) if unflatten(k, dims).ion1 == "a" else 1.0
                     for k in range(math.prod(dims))])
    psi0 = np.zeros(math.prod(dims), dtype=complex)
    psi0[BasisIndex("a", "a", 0, 0).flatten(dims)] = 1.0
    return {
        "hamiltonian": h, "h_eff": h_eff, "h_eff_adiabatic": h_ad, "channels": channels,
        "total": sum(op.conj().T @ op for _, op in channels), "gate": gate, "psi0": psi0,
    }


def assert_close(got, want, tol):
    # relative to the operator's scale: two nodes' terms summed per entry
    # round differently from the per-ion sums, by an ulp or two of the entry
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(
    adiabatic=st.booleans(),
    gamma=st.floats(0.0, 0.5),
    eta=st.floats(0.0, 1.0),
    lam=st.floats(0.2, 5.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    n_max=st.sampled_from([1, 2]),
    # the usual range, and within 2e-3 of the reduced generator's
    # exceptional point, where both evaluators are drawn
    kappa=st.one_of(st.floats(0.5, 20.0),
                    st.floats(EXCEPTIONAL_KAPPA * (1 - 2e-3), EXCEPTIONAL_KAPPA * (1 + 2e-3))),
    t=st.floats(0.0, 100.0),
)
@example(adiabatic=True, gamma=0.0, eta=0.7, lam=0.5, phi=1.0, n_max=1,
         kappa=EXCEPTIONAL_KAPPA, t=20.0)
@example(adiabatic=True, gamma=0.0, eta=1.0, lam=1.0, phi=0.0, n_max=2,
         kappa=EXCEPTIONAL_KAPPA, t=20.0)
def test_node_builder_matches_the_embedded_operators(adiabatic, gamma, eta, lam, phi, n_max,
                                                     kappa, t):
    # the reduced generator has no |c> level to decay from
    gamma = 0.0 if adiabatic else gamma
    p = SystemParams(adiabatic=adiabatic, gamma_ca=gamma, gamma_cb=gamma, eta=eta, lam=lam,
                     phi=phi, n_max=n_max, kappa=kappa)
    ref = embedded_operators(p)
    eng = StageEngine(p)
    h_eff = ref["h_eff_adiabatic"] if adiabatic else ref["h_eff"]
    for got, want in ((build_hamiltonian(p).entries, ref["hamiltonian"]),
                      (build_h_eff(p).entries, ref["h_eff"]),
                      (build_h_eff_adiabatic(p).entries, ref["h_eff_adiabatic"]),
                      (eng.h_eff, h_eff), (eng.total_op, ref["total"]),
                      (np.diag(phase_gate(phi, n_max).entries), ref["gate"]),
                      (eng.phase_diag, ref["gate"]), (eng.psi0.amplitudes, ref["psi0"])):
        assert_close(got, want, 1e-14)
    assert eng.tags == [tag for tag, _ in ref["channels"]]
    for op, (_, want) in zip(eng.ops, ref["channels"]):
        assert_close(op, want, 1e-14)
    assert_close(eng.propagator, expm(-1j * p.dt * h_eff), 1e-14)

    dim = math.prod(p.dims)
    psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    psi /= np.linalg.norm(psi)
    if eng.spectral:
        assert_close(eng._v @ np.diag(eng._w_pairs) @ eng._v_inv, h_eff, 1e-12)
    else:
        exact = expm(-1j * t * h_eff) @ psi
        assert np.max(np.abs(eng._segment(psi, t).end - exact)) <= 1e-12
        # the batch form, from one shared row
        rows = eng._evolve_rows((eng._v_inv @ psi)[None], np.array([t, t]))
        assert np.max(np.abs(rows - exact)) <= 1e-12
    if adiabatic and kappa == EXCEPTIONAL_KAPPA:
        assert not eng.spectral
    assert StageEngine(SystemParams(adiabatic=adiabatic, n_max=n_max)).spectral
