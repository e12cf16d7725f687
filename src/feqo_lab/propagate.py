"""Norm-conserving time evolution under a constant Hermitian operator.

Both routes solve only the blocks of H in which the initial state has
weight: H never joins two blocks, so every other block stays exactly zero.
EIGEN_ORACLE diagonalizes each of those blocks once and applies exact phase
factors.  FIXED_STEP advances the state in equal intervals by one step
operator U = exp(-i H dt / hbar) from a Chebyshev expansion, with no
eigendecomposition: each solved block of H is shifted by the centre D of its
Gershgorin interval, exp(-i D dt / hbar) is a per-block phase, and
exp(-i (H - D) dt / hbar) is expanded to machine precision, so the degree
follows the widest solved block, not the spread of the block energies.  The
expansion runs on H restricted to the solved states.  When the run has at
least as many intervals as the largest solved block has states, it runs
once, on that many probe columns: column j holds 1 on the j-th state of
every solved block, so the blocks of U come out side by side, and U is kept
as one sparse matrix of sum(b^2) entries, so a step is one sparse matvec.
Otherwise, or when the probe would exceed MAX_PROBE_AMPLITUDES, the
expansion runs on the state in every interval.  A step or a run whose
Chebyshev cost exceeds MAX_TERMS or MAX_MATVECS is refused before it starts.
The two routes are algorithmically independent and are cross-checked in the
tests.

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
from scipy import sparse, special

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
MAX_TERMS = 10 ** 5         # Chebyshev terms one FIXED_STEP interval may take
MAX_MATVECS = 10 ** 7       # steps x terms of one FIXED_STEP propagation
MAX_PROBE_AMPLITUDES = 2 ** 23  # solved states x largest solved block
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


def _occupied_blocks(H: HermitianOperator, psi0: StateVector
                     ) -> list[np.ndarray]:
    """The blocks of H where psi0 has weight: H never joins two blocks, so
    every other block stays exactly zero."""
    support = psi0.amplitudes != 0
    # a zero state stays zero under any one block
    return [idx for idx in H.blocks() if support[idx].any()] or H.blocks()[:1]


def _eigen_route(H: HermitianOperator, psi0: StateVector):
    """times -> (len(times), dim) amplitudes of V exp(-i L t / hbar) V^dag psi0,
    solving only the occupied blocks of H."""
    occupied = _occupied_blocks(H, psi0)
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
    """exp(-i H dt / hbar) on the solved blocks of H (every block by
    default), zero on every other state.

    The step is exp(-i D dt / hbar) p(A): D holds, for each solved state, the
    midpoint of its block's Gershgorin interval, and p is the Chebyshev
    expansion of exp(-i (H - D) dt / hbar) in A = (H - D) / radius, radius
    being half the widest solved block's interval.  A is H restricted to the
    solved states.  That restriction and the per-block phase are exact only
    when every coupling of H stays inside one solved block or among unsolved
    states; that is checked on H's couplings, not taken from the blocks
    given.  When the probe of the module docstring pays (no wider than
    `steps`) and fits in MAX_PROBE_AMPLITUDES, p(A) is applied to it once
    and the step is the sparse matrix u; otherwise u is None and each step
    runs the expansion on the state, in memory linear in the solved states.
    """

    def __init__(self, H: HermitianOperator, dt_fs: float, steps: int,
                 blocks: list[np.ndarray] | None = None):
        blocks = H.blocks() if blocks is None else blocks
        self.order = order = np.concatenate(blocks)
        sizes = np.array([idx.size for idx in blocks])
        starts = np.cumsum(sizes) - sizes
        label = np.full(H.dimension, -1)   # block of each state, -1 unsolved
        label[order] = np.repeat(np.arange(len(blocks)), sizes)
        upper = H.upper.tocoo()
        joined = upper.data != 0
        if np.any(label[upper.row[joined]] != label[upper.col[joined]]):
            raise PropagationError(
                "a coupling of H joins two different blocks, so the block "
                "centres do not commute with H: H.blocks() does not follow "
                "H's couplings")
        radii = H.gershgorin_radii()[order]
        lo = np.minimum.reduceat(H.diag[order] - radii, starts)
        hi = np.maximum.reduceat(H.diag[order] + radii, starts)
        self.centres = d = np.repeat(0.5 * (hi + lo), sizes)   # along order
        # small pad keeps the map inside [-1, 1]
        self.radius = 0.5 * np.max(hi - lo) * 1.01 + 1e-12
        self.dt = dt_fs
        self.z = self.radius * dt_fs / _HBAR
        terms = self.z + 15.0 * (self.z + 16.0) ** (1.0 / 3.0) + 24.0
        if not terms <= MAX_TERMS:
            raise DomainError(
                f"a Chebyshev step of {dt_fs:.6g} fs needs about {terms:.3g} "
                f"terms, more than {MAX_TERMS}; lower "
                f"propagator.sample_every_fs or use the eigen route")
        if not steps * terms <= MAX_MATVECS:
            raise DomainError(
                f"{steps} steps x about {terms:.0f} Chebyshev terms is more "
                f"than {MAX_MATVECS} matvecs; shorten run.total_time_fs or "
                f"use the eigen route")
        ks = np.arange(math.ceil(terms) + 1)
        bessel = special.jv(ks, self.z)
        if not np.all(np.isfinite(bessel)) or abs(bessel[-1]) > 1e-13:
            raise PropagationError(
                "Chebyshev expansion did not converge: step too large")
        self.coeff = (2.0 * (-1j) ** ks) * bessel
        self.coeff[0] = bessel[0]
        # drop the negligible tail, keeping a machine-precision remainder
        keep = max(np.nonzero(np.abs(self.coeff) > 1e-16)[0].max() + 1, 2)
        self.coeff = self.coeff[:keep]
        # 2A, exactly: each term of the recurrence is one matvec and one axpy
        self._twice_a = HermitianOperator(
            None, 2.0 * (H.diag[order] - d) / self.radius,
            2.0 * sparse.triu(H.to_csr()[order][:, order], k=1, format="csr")
            / self.radius)
        self.phase = np.exp(-1j * d * dt_fs / _HBAR)
        self.dimension = H.dimension

        width = int(sizes.max())
        self.u = None
        # the probe costs `width` expansions, streaming one per step
        if width > steps or order.size * width > MAX_PROBE_AMPLITUDES:
            return
        # position in `order` of each solved state's block start, and the
        # state's column in its block
        first = np.repeat(starts, sizes)
        col = np.arange(order.size) - first
        probe = np.zeros((order.size, width), dtype=np.complex128)
        probe[np.arange(order.size), col] = 1.0
        acc = self._expand(probe)
        del probe   # garbage after the recurrence; freed before u is built
        # u[r, c] for r, c in one block is acc[r, column of c] times that
        # block's phase: one entry per pair, sum of b^2 over the blocks
        at, j = np.nonzero(np.arange(width) < np.repeat(sizes, sizes)[:, None])
        data = acc[at, j]
        del acc
        data *= self.phase[at]
        self.u = sparse.csr_matrix(
            (data, (order[at], order[first[at] + j])),
            shape=(H.dimension, H.dimension))

    def _expand(self, x: np.ndarray) -> np.ndarray:
        """p(A) x for x of shape (solved states,) or (solved states, k),
        overwriting x: four arrays of x's size are live at once."""
        t_prev, t_cur = x, self._twice_a.matvec(x)
        t_cur *= 0.5
        acc = self.coeff[1] * t_cur
        acc += self.coeff[0] * t_prev
        for ck in self.coeff[2:]:
            np.subtract(self._twice_a.matvec(t_cur), t_prev, out=t_prev)
            t_prev, t_cur = t_cur, t_prev
            acc += ck * t_cur
        return acc

    def step(self, v: np.ndarray) -> np.ndarray:
        if self.u is not None:
            return self.u @ v
        out = np.zeros(self.dimension, dtype=np.complex128)
        out[self.order] = self.phase * self._expand(v[self.order])
        return out


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
    applies the step operator of T / K once per interval.  Norm drift beyond
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
        step = _ChebyshevStepper(H, total_time_fs / intervals, intervals,
                                 _occupied_blocks(H, psi0)).step
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
