"""Norm-conserving time evolution under a constant Hermitian operator.

Two routes: EIGEN_ORACLE diagonalizes once each block of H in which the
initial state has weight and applies exact phase factors; FIXED_STEP advances
the whole state in equal intervals, expanding each interval's
exp(-i H dt / hbar) in Chebyshev polynomials to machine precision over a
Gershgorin enclosure of the spectrum.  The two routes are algorithmically
independent and are cross-checked in the tests.

Both routes sample one grid.  A propagation of length T with sample gap D is
split into K = ceil(T / D) equal intervals (K = 0 when T = 0); the samples
sit at T k / K for k = 0 .. K, and the last sample is the final state.  The
samples are reduced to their metrics in chunks of at most CHUNK_AMPLITUDES
amplitudes, one array pass per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import BasisError, DomainError, PropagationError
from .hamiltonian import HermitianOperator
from .hilbert import (StateVector, electron_populations, schmidt_entropy,
                      sideband_leakage)
from .physpar import _HBAR

__all__ = ["EIGEN_DIM_CAP", "EIGEN_ORACLE", "FIXED_STEP", "PropagatorConfig",
           "Trajectory", "propagate", "propagate_eigen"]

EIGEN_ORACLE = "eigen"
FIXED_STEP = "fixed_step"
EIGEN_DIM_CAP = 4000        # largest block EIGEN_ORACLE solves
MAX_INTERVALS = 10 ** 6     # sample intervals one propagation may hold
CHUNK_AMPLITUDES = 2 ** 18  # amplitudes (4 MiB) reduced to metrics at once


@dataclass(frozen=True)
class PropagatorConfig:
    method: str = EIGEN_ORACLE
    sample_every_fs: float | None = None   # widest sample gap; defaults to total_time / 200
    norm_tol: float = 1e-8

    def __post_init__(self):
        if self.method not in (EIGEN_ORACLE, FIXED_STEP):
            raise DomainError(f"unknown propagation method {self.method!r}")
        if self.sample_every_fs is not None and not self.sample_every_fs > 0:
            raise DomainError("sample_every_fs must be positive")


@dataclass
class Trajectory:
    """Sampled observables along one propagation, or along several joined."""

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

    def then(self, later: Trajectory) -> Trajectory:
        """This trajectory, then `later` shifted to start at its end, without
        later's first sample: it repeats this one's last up to frame phases,
        which change no sampled observable."""
        def join(a, b):
            return np.concatenate([a, b[1:]])
        return Trajectory(
            join(self.times_fs, self.times_fs[-1] + later.times_fs),
            join(self.populations, later.populations),
            join(self.photon_mean, later.photon_mean),
            join(self.entropy_nats, later.entropy_nats),
            join(self.norm, later.norm), later.final_state, self.basis)


def _sample_metrics(basis, amps: np.ndarray):
    """(populations, photon mean, entropy, norm) of each row of the
    (samples, dimension) amplitude array."""
    probs = np.abs(amps) ** 2
    photon = probs.reshape(len(amps), -1, basis.photon_dim).sum(axis=1)
    return (electron_populations(probs.reshape(-1, *basis.shape), basis),
            (photon * np.arange(basis.photon_dim)).sum(axis=-1),
            schmidt_entropy(amps, basis), np.sqrt(probs.sum(axis=-1)))


def _eigen_route(H: HermitianOperator, psi0: StateVector):
    """times -> (len(times), dim) amplitudes of V exp(-i L t / hbar) V^dag psi0,
    solving only the blocks of H where psi0 has weight: H never joins two
    blocks, so every other block stays exactly zero."""
    support = psi0.amplitudes != 0
    # a zero state stays zero under any one block
    occupied = [idx for idx in H.blocks() if support[idx].any()] \
        or H.blocks()[:1]
    largest = max(idx.size for idx in occupied)
    if largest > EIGEN_DIM_CAP:
        raise PropagationError(
            f"largest block of H that the state occupies has {largest} "
            f"states, above the eigen-oracle cap {EIGEN_DIM_CAP}; use "
            f"FIXED_STEP")
    w, v = H.eigensystem(occupied)
    coeff = v.conj().T @ psi0.amplitudes
    return lambda times: np.ascontiguousarray((v @ (
        np.exp(-1j * np.outer(w, times) / _HBAR) * coeff[:, None])).T)


def propagate_eigen(H: HermitianOperator, psi0: StateVector, t_fs: float
                    ) -> StateVector:
    """Exact evolution psi(t) = V exp(-i L t / hbar) V^dag psi0."""
    if H.basis != psi0.basis:
        raise BasisError("operator and state live on different bases")
    return StateVector(psi0.basis, _eigen_route(H, psi0)([t_fs])[0])


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


def _interval_count(total_time_fs: float, sample_every_fs: float) -> int:
    """K = ceil(T / D), forgiving a relative rounding error of 1e-12 in T / D;
    refused above MAX_INTERVALS before anything is allocated."""
    if total_time_fs == 0:
        return 0
    ratio = total_time_fs / sample_every_fs
    if not ratio <= MAX_INTERVALS:
        raise DomainError(
            f"sampling {total_time_fs:.6g} fs every {sample_every_fs:.6g} fs "
            f"takes more than {MAX_INTERVALS} intervals; raise sample_every_fs")
    return max(math.ceil(ratio * (1.0 - 1e-12)), 1)


def propagate(H: HermitianOperator, psi0: StateVector, total_time_fs: float,
              config: PropagatorConfig | None = None) -> Trajectory:
    """Evolve psi0 for total_time_fs, sampling populations, <n>, entropy, norm.

    The duration T is split into K = ceil(T / sample_every) equal intervals,
    sample_every defaulting to T / 200, and the samples sit at T k / K for
    k = 0 .. K: the first is psi0 and the last, at T, is the final state.
    EIGEN_ORACLE evaluates the exact evolution at each sample time; FIXED_STEP
    applies one Chebyshev step of T / K per interval.  Norm drift beyond
    config.norm_tol at any sample aborts with a step-size diagnostic.
    """
    if not total_time_fs >= 0:
        raise DomainError("total_time must be >= 0")
    cfg = config or PropagatorConfig()
    basis = psi0.basis
    if H.basis != basis:
        raise BasisError("operator and state live on different bases")
    intervals = _interval_count(
        total_time_fs, cfg.sample_every_fs or total_time_fs / 200.0)

    times = np.linspace(0.0, total_time_fs, intervals + 1)
    pops = np.empty((times.size, basis.num_electrons, basis.sideband_count))
    ph_mean, entropy, norms = (np.empty(times.size) for _ in range(3))
    psi0.require_normalized(max(cfg.norm_tol, 1e-9))

    if cfg.method == EIGEN_ORACLE:
        evolve = _eigen_route(H, psi0)
    elif intervals:
        step = _ChebyshevStepper(H, total_time_fs / intervals).step
    amps = psi0.amplitudes
    chunk = max(CHUNK_AMPLITUDES // basis.dimension, 1)
    for a in range(0, times.size, chunk):
        b = min(a + chunk, times.size)
        if cfg.method == EIGEN_ORACLE:
            batch = evolve(times[a:b])
        else:
            batch = np.empty((b - a, basis.dimension), dtype=np.complex128)
            for k in range(a, b):
                amps = batch[k - a] = step(amps) if k else amps
        pops[a:b], ph_mean[a:b], entropy[a:b], norms[a:b] = \
            _sample_metrics(basis, batch)
        drift = ~(np.abs(norms[a:b] - 1.0) <= cfg.norm_tol)
        if drift.any():
            k = a + int(np.argmax(drift))
            raise PropagationError(
                f"norm drift {abs(norms[k] - 1.0):.3e} at t = {times[k]:.6g} "
                f"fs exceeds {cfg.norm_tol:.1e}: step too large")

    return Trajectory(times_fs=times, populations=pops, photon_mean=ph_mean,
                      entropy_nats=entropy, norm=norms,
                      final_state=StateVector(basis, batch[-1].copy()),
                      basis=basis)
