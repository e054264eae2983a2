import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

import homsim

from homsim.analytic import (
    ModePair,
    EmitterParams,
    bs_mode_transform,
    detection_rate,
    emission_norm,
    heralded_states,
    same_detector_probability,
    spectral_density,
    success_probability,
    emission_amplitude,
)
from homsim.model import SystemParams

RNG = np.random.default_rng(5150)


# -- free-space emission toy model ---------------------------------------------


def test_emission_amplitude_zero_at_t0():
    p = EmitterParams(1.7)
    for nu in (-3.0, 0.0, 0.4, 12.0):
        assert emission_amplitude(nu, 0.0, p) == 0.0


def test_emission_amplitude_long_time_peak():
    p = EmitterParams(2.0)
    amp = emission_amplitude(p.omega0, 200.0, p)
    assert abs(amp) ** 2 == pytest.approx(2.0 / (math.pi * p.rate), rel=1e-10)


def test_emitter_emission_norm_long_time():
    # total emission probability integrates to 1 once the emitter has decayed
    for rate in (0.5, 2.0):
        assert emission_norm(80.0 / rate, EmitterParams(rate)) == pytest.approx(1.0, abs=1e-6)


def test_emitter_emission_norm_follows_decay_law():
    # the amplitude formula, integrated over the whole line, gives the norm;
    # nu = omega0 + (rate/2) tan(theta) maps the line onto (-pi/2, pi/2)
    for p in (EmitterParams(1.3, omega0=2.0), EmitterParams(0.5, omega0=-1.0)):
        a = p.rate / 2.0

        def density(theta, t, p=p, a=a):
            return spectral_density(p.omega0 + a * math.tan(theta), t, p) * a / math.cos(theta) ** 2

        for t in (0.3, 1.0, 4.0, 50.0):
            whole, _ = quad(density, -math.pi / 2, math.pi / 2, args=(t,),
                            epsabs=1e-6, epsrel=0.0, limit=5000)
            assert emission_norm(t, p) == pytest.approx(whole, abs=1e-5)
            assert emission_norm(t, p) == pytest.approx(1.0 - math.exp(-p.rate * t), rel=1e-14)


@given(rate=st.floats(1e-3, 1e3), t=st.floats(0.0, 1e4))
@example(rate=1.0, t=50.0)   # the spectrum command's defaults
def test_emission_norm_never_exceeds_one(rate, t):
    assert 0.0 <= emission_norm(t, EmitterParams(rate)) <= 1.0
    with pytest.raises(ValueError, match="t must be >= 0"):
        emission_norm(-1.0 - t, EmitterParams(rate))


def test_import_leaves_scipy_integrate_out():
    # the library needs no quadrature; only the oracle suite's scipy.stats loads it
    src = os.path.dirname(os.path.dirname(homsim.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, homsim; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_emitter_lorentzian_fwhm():
    # steady-state spectrum is Lorentzian: half maximum at detuning rate/2
    p = EmitterParams(0.8, omega0=1.0)
    t = 500.0
    peak = spectral_density(p.omega0, t, p)
    half = spectral_density(p.omega0 + p.rate / 2.0, t, p)
    assert half == pytest.approx(peak / 2.0, rel=1e-8)


# -- beam-splitter mode algebra --------------------------------------------------


def _fock_oracle(amplitudes: np.ndarray, lam: float) -> np.ndarray:
    """Independent route: truncated-Fock creation matrices instead of
    symbolic polynomial expansion."""
    dim = 3
    a = np.diag(np.sqrt(np.arange(1, dim)), -1)  # creation
    ident = np.eye(dim)
    a1 = np.kron(a, ident)
    a2 = np.kron(ident, a)
    vac = np.zeros(dim * dim)
    vac[0] = 1.0
    r = lam / (1 + lam)
    t = 1 / (1 + lam)
    d1 = math.sqrt(r) * a1 + math.sqrt(t) * a2
    d2 = math.sqrt(t) * a1 - math.sqrt(r) * a2

    def monomial(op1, op2, m, n):
        out = vac.copy().astype(complex)
        for _ in range(n):
            out = op2 @ out
        for _ in range(m):
            out = op1 @ out
        return out / math.sqrt(math.factorial(m) * math.factorial(n))

    state = sum(
        amplitudes[m, n] * monomial(a1, a2, m, n)
        for m in range(3)
        for n in range(3)
        if amplitudes[m, n] != 0
    )
    out = np.zeros((3, 3), dtype=complex)
    for p_ in range(3):
        for q in range(3):
            out[p_, q] = np.vdot(monomial(d1, d2, p_, q), state)
    return out


def test_bs_hom_balanced():
    inp = np.zeros((3, 3), dtype=complex)
    inp[1, 1] = 1.0
    out = bs_mode_transform(ModePair(inp), 1.0).amplitudes
    assert abs(out[1, 1]) < 1e-12
    assert out[2, 0] == pytest.approx(1 / math.sqrt(2))
    assert out[0, 2] == pytest.approx(-1 / math.sqrt(2))


def test_bs_single_photon_balanced():
    inp = np.zeros((3, 3), dtype=complex)
    inp[1, 0] = 1.0
    out = bs_mode_transform(ModePair(inp), 1.0).amplitudes
    assert out[1, 0] == pytest.approx(1 / math.sqrt(2))
    assert out[0, 1] == pytest.approx(1 / math.sqrt(2))


def test_bs_coincidence_general_lambda():
    for lam in (0.4, 0.75, 1.0, 1.6, 2.5):
        inp = np.zeros((3, 3), dtype=complex)
        inp[1, 1] = 1.0
        out = bs_mode_transform(ModePair(inp), lam).amplitudes
        r, t = lam / (1 + lam), 1 / (1 + lam)
        assert abs(out[1, 1]) ** 2 == pytest.approx((t - r) ** 2, abs=1e-12)


def test_bs_matches_fock_matrix_oracle():
    for lam in (0.5, 1.0, 1.8):
        for _ in range(4):
            amp = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
            amp[2, 1] = amp[1, 2] = amp[2, 2] = 0.0  # keep to <= 2 photons total
            amp /= np.sqrt(np.sum(np.abs(amp) ** 2))
            got = bs_mode_transform(ModePair(amp), lam).amplitudes
            want = _fock_oracle(amp, lam)
            assert np.max(np.abs(got - want)) < 1e-12


def test_bs_norm_preserving():
    for lam in (0.3, 1.0, 3.3):
        amp = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        amp[2, 1] = amp[1, 2] = amp[2, 2] = 0.0
        amp /= np.sqrt(np.sum(np.abs(amp) ** 2))
        assert bs_mode_transform(ModePair(amp), lam).norm2() == pytest.approx(1.0)


# -- heralded states and rate formulas -------------------------------------------


def test_heralded_states():
    plus, minus = heralded_states()
    assert np.vdot(plus.amplitudes, minus.amplitudes) == pytest.approx(0.0)
    assert np.vdot(plus.amplitudes, plus.amplitudes) == pytest.approx(1.0)
    assert np.vdot(minus.amplitudes, minus.amplitudes) == pytest.approx(1.0)
    ba = np.zeros(9)
    ba[3] = 1.0  # ion1=b, ion2=a
    assert np.vdot(plus.amplitudes, ba) == pytest.approx(1 / math.sqrt(2))


def test_detection_rate():
    assert detection_rate(SystemParams()) == pytest.approx(1e-3)
    assert detection_rate(SystemParams(omega=0.0)) == 0.0
    assert detection_rate(SystemParams(eta=0.5)) == pytest.approx(0.5e-3)


def test_success_probability():
    assert success_probability(SystemParams()) == pytest.approx(0.1)
    assert success_probability(SystemParams(eta=0.5)) == pytest.approx(0.05)
    assert success_probability(SystemParams(t_wait=0.0)) == 0.0
    assert success_probability(SystemParams(t_wait=1e9)) == 1.0


def test_p1_p2_split():
    # detector 1 takes same_detector_probability, detector 2 the rest
    for phi, p1, p2 in ((0.0, 1.0, 0.0), (math.pi, 0.0, 1.0), (math.pi / 2, 0.5, 0.5)):
        ps = same_detector_probability(phi)
        assert (ps, 1.0 - ps) == pytest.approx((p1, p2))
    for phi in RNG.uniform(0, 2 * math.pi, size=10):
        ps = same_detector_probability(phi)
        assert ps == pytest.approx((1.0 + math.cos(phi)) / 2.0)
        assert 1.0 - ps == pytest.approx((1.0 - math.cos(phi)) / 2.0)


def test_same_detector_probability_symmetry():
    for phi in RNG.uniform(0, 2 * math.pi, size=10):
        ps = same_detector_probability(phi)
        assert same_detector_probability(-phi) == pytest.approx(ps)
        assert same_detector_probability(2 * math.pi - phi) == pytest.approx(ps)
