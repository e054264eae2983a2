"""Closed-form reference results: the free-space emission toy model, the
beam-splitter mode algebra on up-to-two-photon states, and the perturbative
rate/probability formulas the trajectory engine is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector
from .model import SystemParams


@dataclass(frozen=True)
class EmitterParams:
    """Free-space (cavity-enhanced) emitter: decay rate and transition frequency."""

    rate: float
    omega0: float = 0.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("decay rate must be positive")


@dataclass(frozen=True)
class ModePair:
    """State of two bosonic modes on the photon-number grid |n1, n2>, n <= 2.

    amplitudes[n1, n2] is the coefficient of the normalized Fock state.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (3, 3):
            raise ValueError("ModePair wants a 3x3 amplitude grid (n = 0, 1, 2)")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def emission_amplitude(nu: float, t: float, p: EmitterParams) -> complex:
    """Single-photon spectral amplitude at frequency nu after emission time t:

        sqrt(rate/2pi) * (1 - exp(i(omega0-nu) t - rate t / 2))
                       / ((nu - omega0) + i rate / 2)

    The emitter's own survival factor is not included.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    g2 = p.rate / 2.0
    bracket = 1.0 - np.exp(1j * (p.omega0 - nu) * t - g2 * t)
    return complex(math.sqrt(p.rate / (2.0 * math.pi)) * bracket / ((nu - p.omega0) + 1j * g2))


def spectral_density(nu: float, t: float, p: EmitterParams) -> float:
    return abs(emission_amplitude(nu, t, p)) ** 2


def emission_norm(t: float, p: EmitterParams) -> float:
    """Integral of the spectral density over the whole line: the probability
    1 - exp(-rate t) that the photon has been emitted by time t.

    Exact: writing x = nu - omega0 and a = rate/2, the density is
    (rate/2pi) [(1 + e^{-2at}) - 2 e^{-at} cos(xt)] / (x^2 + a^2), and the
    two terms integrate to (1 + e^{-2at}) and -2 e^{-2at}.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return -math.expm1(-p.rate * t)


def bs_mode_transform(state: ModePair, lam: float) -> ModePair:
    """Rewrite a two-mode photon state from the cavity-mode basis to the
    detector-mode basis behind a beam splitter with intensity ratio lam = R/T.

    Uses the involutive substitution c1^dag = sqrt(R) d1^dag + sqrt(T) d2^dag,
    c2^dag = sqrt(T) d1^dag - sqrt(R) d2^dag and collects the polynomial in
    the d operators; exact for up to two photons.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    r = lam / (1.0 + lam)
    tt = 1.0 / (1.0 + lam)
    sr, st = math.sqrt(r), math.sqrt(tt)
    # coeff[p, q] of the monomial d1^dag^p d2^dag^q acting on vacuum
    poly = np.zeros((5, 5), dtype=complex)
    for m in range(3):
        for n in range(3):
            alpha = state.amplitudes[m, n]
            if alpha == 0:
                continue
            pref = alpha / math.sqrt(math.factorial(m) * math.factorial(n))
            # (sr x + st y)^m expanded times (st x - sr y)^n expanded
            for k in range(m + 1):
                ck = math.comb(m, k) * sr**k * st ** (m - k)
                for l in range(n + 1):
                    cl = math.comb(n, l) * st**l * (-sr) ** (n - l)
                    poly[k + l, (m - k) + (n - l)] += pref * ck * cl
    out = np.zeros((3, 3), dtype=complex)
    for pp in range(3):
        for qq in range(3):
            out[pp, qq] = poly[pp, qq] * math.sqrt(math.factorial(pp) * math.factorial(qq))
    return ModePair(out)


def heralded_states() -> tuple[StateVector, StateVector]:
    """The two maximally entangled ion states a detector click projects onto:
    |+-> = (|b a> +- |a b>)/sqrt(2), as vectors on the ion (x) ion sector."""
    plus = np.zeros(9, dtype=complex)
    minus = np.zeros(9, dtype=complex)
    i_ba = 1 * 3 + 0    # ion1 = b, ion2 = a
    i_ab = 0 * 3 + 1
    plus[i_ba] = plus[i_ab] = 1.0 / math.sqrt(2.0)
    minus[i_ba] = 1.0 / math.sqrt(2.0)
    minus[i_ab] = -1.0 / math.sqrt(2.0)
    return StateVector(plus, (3, 3)), StateVector(minus, (3, 3))


def detection_rate(p: SystemParams) -> float:
    """Perturbative first-photon detection rate 4*kappa*(g*omega/(delta*kappa))^2,
    thinned by the detection efficiency."""
    return 4.0 * p.kappa * (p.g * p.omega / (p.delta * p.kappa)) ** 2 * p.eta


def success_probability(p: SystemParams) -> float:
    """Linearized herald probability rate * t_wait, clamped to [0, 1].
    Accurate only while rate * t_wait is small."""
    return min(1.0, detection_rate(p) * p.t_wait)


def same_detector_probability(phi: float) -> float:
    """Probability that the second photon exits toward the detector that saw
    the first one."""
    return (1.0 + math.cos(phi)) / 2.0
