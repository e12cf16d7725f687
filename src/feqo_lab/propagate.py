"""Norm-conserving time evolution under a constant Hermitian operator.

Two routes: EIGEN_ORACLE diagonalizes each block of H once and applies exact
phase factors; FIXED_STEP advances the whole state in fixed intervals,
expanding each interval's exp(-i H dt / hbar) in Chebyshev polynomials to
machine precision over a Gershgorin enclosure of the spectrum.  The two
routes are algorithmically independent and are cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import BasisError, DomainError, PropagationError
from .hamiltonian import HermitianOperator
from .hilbert import (StateVector, electron_populations, partial_trace,
                      photon_number_mean, sideband_leakage,
                      von_neumann_entropy)
from .physpar import _HBAR

__all__ = ["EIGEN_ORACLE", "FIXED_STEP", "PropagatorConfig", "Trajectory",
           "propagate", "propagate_eigen"]

EIGEN_ORACLE = "eigen"
FIXED_STEP = "fixed_step"


@dataclass(frozen=True)
class PropagatorConfig:
    method: str = EIGEN_ORACLE
    step_dt_fs: float | None = None        # FIXED_STEP substep; defaults to the sample interval
    sample_every_fs: float | None = None   # defaults to total_time / 200
    norm_tol: float = 1e-8
    eigen_dim_cap: int = 4000              # largest block EIGEN_ORACLE solves

    def __post_init__(self):
        if self.method not in (EIGEN_ORACLE, FIXED_STEP):
            raise DomainError(f"unknown propagation method {self.method!r}")
        if self.step_dt_fs is not None and self.step_dt_fs <= 0:
            raise DomainError("step_dt_fs must be positive")
        if (self.step_dt_fs is not None and self.sample_every_fs is not None
                and self.sample_every_fs < self.step_dt_fs):
            raise DomainError("sample_every_fs must be >= step_dt_fs")


@dataclass
class Trajectory:
    """Sampled observables along one constant-Hamiltonian evolution."""

    times_fs: np.ndarray
    populations: np.ndarray          # (n_samples, num_electrons, n_sidebands)
    photon_mean: np.ndarray
    entropy_nats: np.ndarray
    norm: np.ndarray
    final_state: StateVector
    basis: object = field(repr=False, default=None)

    def computational_populations(self) -> np.ndarray:
        """(n_samples, num_electrons, 2) populations on (g, e) = (-1/2, +1/2)."""
        cols = [self.basis.sideband_position(-0.5),
                self.basis.sideband_position(0.5)]
        return self.populations[:, :, cols]

    def leakage(self) -> np.ndarray:
        """Per-sample leakage outside +-1/2, averaged over electrons."""
        return sideband_leakage(self.populations, self.basis)


def _sample_metrics(basis, amps: np.ndarray):
    state = StateVector(basis, amps)
    entropy = von_neumann_entropy(partial_trace(state, keep="electrons"))
    return (electron_populations(state), photon_number_mean(state), entropy,
            float(np.linalg.norm(amps)))


def _eigen_route(H: HermitianOperator, psi0: StateVector, dim_cap: int):
    """t -> amplitudes of V exp(-i L t / hbar) V^dag psi0."""
    largest = max(idx.size for idx in H.blocks())
    if largest > dim_cap:
        raise PropagationError(
            f"largest block of H has {largest} states, above the eigen-oracle "
            f"cap {dim_cap}; use FIXED_STEP")
    w, v = H.eigensystem()
    coeff = v.conj().T @ psi0.amplitudes
    return lambda t: v @ (np.exp(-1j * w * t / _HBAR) * coeff)


def propagate_eigen(H: HermitianOperator, psi0: StateVector, t_fs: float,
                    dim_cap: int = PropagatorConfig.eigen_dim_cap
                    ) -> StateVector:
    """Exact evolution psi(t) = V exp(-i L t / hbar) V^dag psi0."""
    if H.basis != psi0.basis:
        raise BasisError("operator and state live on different bases")
    return StateVector(psi0.basis, _eigen_route(H, psi0, dim_cap)(t_fs))


class _ChebyshevStepper:
    """Applies exp(-i H dt / hbar) via a Chebyshev expansion on [lo, hi]."""

    def __init__(self, H: HermitianOperator, dt_fs: float):
        lo, hi = H.gershgorin_interval()
        half = 0.5 * (hi - lo)
        self.center = 0.5 * (hi + lo)
        self.radius = half * 1.01 + 1e-12   # small pad keeps the map inside [-1, 1]
        self.dt = dt_fs
        self.z = self.radius * dt_fs / _HBAR
        self.phase = np.exp(-1j * self.center * dt_fs / _HBAR)
        k_max = int(math.ceil(self.z + 15.0 * (self.z + 16.0) ** (1.0 / 3.0) + 24.0))
        ks = np.arange(k_max + 1)
        bessel = special.jv(ks, self.z)
        if not np.all(np.isfinite(bessel)) or abs(bessel[-1]) > 1e-13:
            raise PropagationError(
                "Chebyshev expansion did not converge: step too large")
        self.coeff = (2.0 * (-1j) ** ks) * bessel
        self.coeff[0] = bessel[0]
        # drop the negligible tail, keeping a machine-precision remainder
        keep = max(np.nonzero(np.abs(self.coeff) > 1e-16)[0].max() + 1, 2)
        self.coeff = self.coeff[:keep]
        self._H = H

    def _apply_scaled(self, v: np.ndarray) -> np.ndarray:
        return (self._H.matvec(v) - self.center * v) / self.radius

    def step(self, v: np.ndarray) -> np.ndarray:
        t_prev = v
        t_cur = self._apply_scaled(v)
        acc = self.coeff[0] * t_prev + self.coeff[1] * t_cur
        for ck in self.coeff[2:]:
            t_prev, t_cur = t_cur, 2.0 * self._apply_scaled(t_cur) - t_prev
            acc += ck * t_cur
        return self.phase * acc


def propagate(H: HermitianOperator, psi0: StateVector, total_time_fs: float,
              config: PropagatorConfig | None = None) -> Trajectory:
    """Evolve psi0 for total_time_fs, sampling populations, <n>, entropy, norm.

    Samples sit at k * sample_every for k = 0 .. floor(T / sample_every); the
    final state is evolved through the full duration.  Norm drift beyond
    config.norm_tol aborts with a step-size diagnostic.
    """
    if total_time_fs < 0:
        raise DomainError("total_time must be >= 0")
    cfg = config or PropagatorConfig()
    basis = psi0.basis
    if H.basis != basis:
        raise BasisError("operator and state live on different bases")

    if total_time_fs == 0:
        n_samples = 1
        sample_dt = 0.0
    else:
        sample_dt = cfg.sample_every_fs or total_time_fs / 200.0
        if sample_dt <= 0:
            raise DomainError("sample_every_fs must be positive")
        n_samples = int(math.floor(total_time_fs / sample_dt + 1e-12)) + 1

    times = np.array([k * sample_dt for k in range(n_samples)])
    pops = np.empty((n_samples, basis.num_electrons, basis.sideband_count))
    ph_mean = np.empty(n_samples)
    entropy = np.empty(n_samples)
    norms = np.empty(n_samples)

    def record(k: int, amps: np.ndarray):
        p, ph, s, nrm = _sample_metrics(basis, amps)
        pops[k], ph_mean[k], entropy[k], norms[k] = p, ph, s, nrm
        if not abs(nrm - 1.0) <= cfg.norm_tol:
            raise PropagationError(
                f"norm drift {abs(nrm - 1.0):.3e} at t = {times[k]:.6g} fs "
                f"exceeds {cfg.norm_tol:.1e}: step too large")

    psi0.require_normalized(max(cfg.norm_tol, 1e-9))

    if cfg.method == EIGEN_ORACLE:
        evolve = _eigen_route(H, psi0, cfg.eigen_dim_cap)
        for k, t in enumerate(times):
            record(k, evolve(t))
        final = evolve(total_time_fs)
    else:
        amps = psi0.amplitudes.copy()
        record(0, amps)
        if n_samples > 1:
            sub = 1
            if cfg.step_dt_fs is not None and cfg.step_dt_fs < sample_dt:
                sub = int(math.ceil(sample_dt / cfg.step_dt_fs - 1e-12))
            stepper = _ChebyshevStepper(H, sample_dt / sub)
            for k in range(1, n_samples):
                for _ in range(sub):
                    amps = stepper.step(amps)
                record(k, amps)
        # residual stretch between the last sample and the full duration
        residual = total_time_fs - times[-1]
        if residual > 1e-12 * max(total_time_fs, 1.0):
            amps = _ChebyshevStepper(H, residual).step(amps)
        final = amps

    final_state = StateVector(basis, final)
    if not abs(final_state.norm - 1.0) <= cfg.norm_tol:
        raise PropagationError(
            f"final-state norm drift {abs(final_state.norm - 1.0):.3e} "
            f"exceeds {cfg.norm_tol:.1e}: step too large")
    return Trajectory(times_fs=times, populations=pops, photon_mean=ph_mean,
                      entropy_nats=entropy, norm=norms,
                      final_state=final_state, basis=basis)
