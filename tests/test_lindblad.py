import math

import numpy as np
import pytest

from homsim.hilbert import BasisIndex, OperatorMatrix, basis_state, embed, fock_destroy, matrix_exp
from homsim.lindblad import (
    DensityMatrix,
    IntegrationError,
    ensemble_compare,
    integrate,
    liouvillian_apply,
)
from homsim.model import (
    SystemParams,
    build_hamiltonian,
    build_jump_channels,
    initial_state,
    stage_hamiltonian,
)
from homsim.trajectory import RngStream, StageEngine, run_until_click


def number_op(p, which=0):
    c = embed(fock_destroy(p.n_max + 1), 2 + which, p.dims)
    return OperatorMatrix(c.entries.conj().T @ c.entries, p.dims)


def aa_projector(p):
    proj = np.zeros((36, 36), dtype=complex)
    for n1 in range(p.n_max + 1):
        for n2 in range(p.n_max + 1):
            k = BasisIndex("a", "a", n1, n2).flatten(p.dims)
            proj[k, k] = 1.0
    return OperatorMatrix(proj, p.dims)


def test_liouvillian_unitary_trace_free():
    p = SystemParams(adiabatic=False)
    h = build_hamiltonian(p)
    rho = DensityMatrix.from_state(initial_state(p))
    dot = liouvillian_apply(rho, h, [])
    assert abs(np.trace(dot)) < 1e-14


def test_liouvillian_trace_preserving_with_channels():
    p = SystemParams(gamma_ca=0.4, gamma_cb=0.2, eta=0.7, adiabatic=False)
    h = build_hamiltonian(p)
    rho = DensityMatrix(np.eye(36) / 36.0, p.dims)
    dot = liouvillian_apply(rho, h, build_jump_channels(p))
    assert abs(np.trace(dot)) < 1e-13


def test_liouvillian_photon_decay_rate():
    # d<n>/dt = -2 kappa for a bare photon
    p = SystemParams(omega=0.0, adiabatic=False).with_(g=0.0)
    rho = DensityMatrix.from_state(basis_state(BasisIndex("a", "a", 1, 0), p.dims))
    dot = liouvillian_apply(rho, build_hamiltonian(p), build_jump_channels(p))
    rate = np.trace(number_op(p).entries @ dot).real
    assert rate == pytest.approx(-2.0 * p.kappa, rel=1e-12)


def test_integrate_unitary_preserves_purity():
    p = SystemParams(kappa=0.0, adiabatic=False)
    h = build_hamiltonian(p)
    rho0 = DensityMatrix.from_state(initial_state(p))
    rho = integrate(rho0, h, [], 2.0, 1e-3)
    purity = np.trace(rho.entries @ rho.entries).real
    assert purity == pytest.approx(1.0, abs=1e-8)


def test_integrate_photon_decay_law():
    p = SystemParams(omega=0.0, adiabatic=False).with_(g=0.0)
    rho0 = DensityMatrix.from_state(basis_state(BasisIndex("a", "a", 1, 0), p.dims))
    t = 0.1
    rho = integrate(rho0, build_hamiltonian(p), build_jump_channels(p), t, 1e-4)
    n_mean = np.trace(number_op(p).entries @ rho.entries).real
    assert n_mean == pytest.approx(math.exp(-2.0 * p.kappa * t), abs=1e-6)


def test_integrate_validates_invariants():
    p = SystemParams(adiabatic=False)
    rho0 = DensityMatrix.from_state(initial_state(p))
    # a deliberately non-trace-preserving "channel set" must trip the guard
    bad = build_jump_channels(p)[:1]
    with pytest.raises(IntegrationError):
        integrate(rho0, build_hamiltonian(p), bad, 5.0, 5e-3)


def test_density_matrix_validation():
    with pytest.raises(IntegrationError):
        DensityMatrix(np.eye(36) * 0.9 / 36.0, (3, 3, 2, 2)).validate()
    m = np.zeros((36, 36), dtype=complex)
    m[0, 0] = 1.0
    m[0, 1] = 0.5
    with pytest.raises(IntegrationError):
        DensityMatrix(m, (3, 3, 2, 2)).validate()


def test_no_click_survival_cross_check():
    # trajectory no-click fraction against the deterministic no-jump norm
    p = SystemParams(adiabatic=False)
    eng = StageEngine(p)
    psi0 = initial_state(p)
    n = 2500
    for t_probe in (20.0, 60.0):
        u = matrix_exp(stage_hamiltonian(p), -1j * t_probe).entries
        surv = float(np.vdot(u @ psi0.amplitudes, u @ psi0.amplitudes).real)
        alive = sum(
            not run_until_click(psi0, eng, RngStream(210, i).for_stage(0), t_probe,
                                sampler="fast", share_curve=True).clicked
            for i in range(n)
        )
        sd = math.sqrt(surv * (1 - surv) / n)
        assert abs(alive / n - surv) <= 3 * sd


def test_ensemble_compare_z_scores():
    p = SystemParams(adiabatic=False)
    report = ensemble_compare(
        p,
        [("n_c1", number_op(p)), ("pop_aa", aa_projector(p))],
        (1.0, 5.0),
        1500,
        99,
    )
    assert report.max_abs_z <= 3.0
    assert report.n_traj == 1500


def test_ensemble_compare_zero_time_exact():
    p = SystemParams(adiabatic=False)
    report = ensemble_compare(p, [("pop_aa", aa_projector(p))], (0.0,), 50, 1)
    assert report.traj_mean[0, 0] == pytest.approx(1.0)
    assert report.lindblad_value[0, 0] == pytest.approx(1.0)
    assert abs(report.z_scores[0, 0]) == 0.0


def test_ensemble_compare_rejects_decreasing_grid_and_no_trajectories():
    p = SystemParams(adiabatic=False)
    with pytest.raises(ValueError, match="t_grid"):
        ensemble_compare(p, [("n_c1", number_op(p))], (2.0, 1.0), 10, 0)
    with pytest.raises(ValueError, match="n_traj"):
        ensemble_compare(p, [("n_c1", number_op(p))], (1.0,), 0, 0)
    report = ensemble_compare(p, [("n_c1", number_op(p))], (1.0, 1.0), 10, 0)
    assert np.array_equal(report.traj_mean[:, 0], report.traj_mean[:, 1])
    assert np.array_equal(report.lindblad_value[:, 0], report.lindblad_value[:, 1])


def test_ensemble_equal_samples_have_zero_variance():
    # no trajectory jumps before t = 1 at this seed: every sample is equal, so
    # the spread is exactly zero and the Poisson-floor branch scores it
    p = SystemParams(adiabatic=False)
    report = ensemble_compare(p, [("n_c1", number_op(p))], (1.0,), 1000, 3)
    assert report.traj_stderr[0, 0] == 0.0
    assert report.z_scores[0, 0] == 0.0


def test_ensemble_stderr_clt_scaling():
    # photon-number observable where every trajectory has an O(1) spread:
    # a bare photon either already leaked (n=0) or not (n=1)
    p = SystemParams(omega=0.0, dt=1e-4, adiabatic=False).with_(g=0.0)
    psi0 = basis_state(BasisIndex("a", "a", 1, 0), p.dims)
    obs = [number_op(p)]
    eng = StageEngine(p)
    from homsim.trajectory import run_unconditioned

    sizes = (200, 800, 3200)
    errs = []
    for n in sizes:
        vals = np.array([
            run_unconditioned(psi0, eng, RngStream(14, i), (0.05,), obs)[0, 0]
            for i in range(n)
        ])
        errs.append(vals.std(ddof=1) / math.sqrt(n))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.65 < slope < -0.35
