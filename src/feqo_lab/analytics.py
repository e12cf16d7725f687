"""Closed-form collapse/revival predictions, regime heuristics, leakage.

The exact population sum keeps the complementary cos^2/sin^2 convention over
identical Poisson weights, so pe_exact_sum(initial="e") and
pe_exact_sum(initial="g") add to one at every instant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hilbert import (StateVector, _poisson_logpmf, electron_populations,
                      poisson_cutoff, sideband_leakage)
from .physpar import ScenarioParams

__all__ = [
    "CollapseRevivalPrediction",
    "RegimeReport",
    "pe_exact_sum",
    "pe_envelope",
    "collapse_revival_times",
    "classify_regime",
    "leakage_fraction",
]

BRAGG = "BRAGG"
RAMAN_NATH = "RAMAN_NATH"
DISPERSIVE = "DISPERSIVE"


def _poisson_weights(alpha: complex, tail_tol: float) -> tuple[np.ndarray, np.ndarray]:
    nbar = abs(alpha) ** 2
    if nbar == 0:
        return np.array([0]), np.array([1.0])
    ms = np.arange(poisson_cutoff(nbar, tail_tol) + 1)
    return ms, np.exp(_poisson_logpmf(ms, nbar))


def pe_exact_sum(alpha: complex, g: float, t, initial: str = "e",
                 tail_tol: float = 1e-12):
    """Excited-level population sum(m) P_m trig^2(g sqrt(m+1) t).

    initial="e" uses cos^2 (population retained), initial="g" uses sin^2.
    Accepts scalar or array t; the Poisson series is truncated once the tail
    mass drops below tail_tol.
    """
    if initial not in ("e", "g"):
        raise DomainError(f"initial must be 'e' or 'g', not {initial!r}")
    ms, pm = _poisson_weights(alpha, tail_tol)
    t_arr = np.asarray(t, dtype=float)
    phase = g * np.sqrt(ms + 1.0)[:, None] * t_arr.reshape(1, -1)
    trig = np.cos(phase) if initial == "e" else np.sin(phase)
    vals = (pm[:, None] * trig ** 2).sum(axis=0).reshape(t_arr.shape)
    return float(vals) if np.isscalar(t) or t_arr.shape == () else vals


def pe_envelope(alpha: complex, g: float, t):
    """Gaussian-collapse approximation (initial |g> convention):

    P_e(t) ~ 1/2 [1 - exp(-g^2 t^2 / 2) cos(2 g t sqrt(nbar + 1))].
    Intended for nbar >> 1; warns below nbar = 4.
    """
    nbar = abs(alpha) ** 2
    if nbar < 4:
        warnings.warn("Gaussian envelope is unreliable below nbar = 4",
                      stacklevel=2)
    t_arr = np.asarray(t, dtype=float)
    vals = 0.5 * (1.0 - np.exp(-0.5 * g * g * t_arr ** 2)
                  * np.cos(2.0 * g * t_arr * math.sqrt(nbar + 1.0)))
    return float(vals) if np.isscalar(t) or t_arr.shape == () else vals


@dataclass(frozen=True)
class CollapseRevivalPrediction:
    """Characteristic times of coherent-field Rabi dynamics, in fs."""

    alpha: complex
    g_rad_per_fs: float
    t_coll_gaussian_fs: float   # sqrt(2)/g, Gaussian-envelope 1/e time
    t_c_adjacent_fs: float      # 2 pi |alpha| / g, adjacent-component dephasing
    t_rev_fs: float             # 2 pi sqrt(nbar + 1) / g


def collapse_revival_times(alpha: complex, g: float) -> CollapseRevivalPrediction:
    """Both collapse estimates plus the revival time for a coherent drive."""
    if g <= 0:
        raise DomainError("need g > 0")
    nbar = abs(alpha) ** 2
    return CollapseRevivalPrediction(
        alpha=complex(alpha), g_rad_per_fs=g,
        t_coll_gaussian_fs=math.sqrt(2.0) / g,
        t_c_adjacent_fs=2.0 * math.pi * abs(alpha) / g,
        t_rev_fs=2.0 * math.pi * math.sqrt(nbar + 1.0) / g,
    )


@dataclass(frozen=True)
class RegimeReport:
    """Heuristic diffraction-regime classification with its inputs echoed."""

    regime: str
    ratio_coupling_to_recoil: float
    ratio_g_to_delta: float | None
    kappa: float
    dispersive_bound: float
    warning: str | None = None


def classify_regime(params: ScenarioParams, alpha: complex,
                    kappa: float = 0.5,
                    dispersive_bound: float = 0.1) -> RegimeReport:
    """Classify by g sqrt(nbar+1) vs recoil (resonant) or g vs Delta (detuned).

    The boundary is heuristic: the acceptance checks rely on simulated
    leakage, not on this label.
    """
    c = params.coupling
    nbar = abs(alpha) ** 2
    coupling = c.g_rad_per_fs * math.sqrt(nbar + 1.0)
    ratio_rec = coupling / c.omega_rec_rad_per_fs
    if c.resonant:
        regime = BRAGG if coupling < kappa * c.omega_rec_rad_per_fs else RAMAN_NATH
        return RegimeReport(regime=regime, ratio_coupling_to_recoil=ratio_rec,
                            ratio_g_to_delta=None, kappa=kappa,
                            dispersive_bound=dispersive_bound)
    ratio_gd = c.g_rad_per_fs / c.delta_rad_per_fs
    if ratio_gd < dispersive_bound:
        return RegimeReport(regime=DISPERSIVE, ratio_coupling_to_recoil=ratio_rec,
                            ratio_g_to_delta=ratio_gd, kappa=kappa,
                            dispersive_bound=dispersive_bound)
    return RegimeReport(
        regime=RAMAN_NATH, ratio_coupling_to_recoil=ratio_rec,
        ratio_g_to_delta=ratio_gd, kappa=kappa,
        dispersive_bound=dispersive_bound,
        warning="detuned and strongly coupled: neither dispersive nor "
                "cleanly resonant; both ratios reported")


def leakage_fraction(state: StateVector) -> float:
    """Probability outside the +-1/2 pair, averaged over electrons."""
    return max(float(sideband_leakage(electron_populations(state),
                                      state.basis)), 0.0)
