"""Norm-conserving time evolution under a constant Hermitian operator.

Both routes solve only the blocks of H in which the initial state has
weight: H never joins two blocks, so every other block stays exactly zero.
EIGEN_ORACLE diagonalizes each of those blocks once and applies exact phase
factors.  FIXED_STEP applies U = exp(-i H dt / hbar) once per interval with
no eigendecomposition (_ChebyshevStepper): a phase per block times a
Chebyshev expansion in n terms (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)) of A, H restricted to the solved states, either probed once, which
yields U's blocks side by side as one sparse matrix, or streamed, run on the
state in every interval.  The two routes are cross-checked in the tests.

_plan prices a propagation once, before anything is allocated.  With b the
solved block sizes, w the largest, K the intervals, D the dimension and
e = nnz(A) + sum(b), it counts stored entries touched (work) and peak bytes:
    EIGEN_ORACLE  work sum(b^3) + K sum(b^2)  bytes 64 sum(b^2)
    probed        work n w e + K sum(b^2)     bytes 64 sum(b) w + 32 n
    streamed      work K n e                  bytes 64 sum(b) + 32 n
plus K (D + SAMPLE_WORK) for the samples, and FIXED_STEP rounds away about
K n 2**-53 of norm.  FIXED_STEP probes when that is less work and fits
MAX_BYTES.  A plan over MAX_INTERVALS, MAX_WORK, MAX_BYTES or norm_tol is
refused with its numbers and the changes under which it fits.  The samples
are reduced to their metrics by hilbert.state_metrics in chunks of at most
CHUNK_AMPLITUDES amplitudes, one array pass per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse, special

from .errors import BasisError, DomainError, PropagationError
from .hamiltonian import HermitianOperator
from .hilbert import StateVector, sideband_leakage, state_metrics
from .physpar import _HBAR

__all__ = ["EIGEN_ORACLE", "FIXED_STEP", "PropagatorConfig", "Trajectory",
           "propagate", "propagate_eigen"]

EIGEN_ORACLE = "eigen"
FIXED_STEP = "fixed_step"
MAX_INTERVALS = 10 ** 6     # sample intervals one propagation may hold
MAX_WORK = 5 * 10 ** 8      # stored entries one propagation may touch
MAX_BYTES = 2 ** 30         # bytes one propagation may hold at its peak
SAMPLE_WORK = 10 ** 4       # one sample's Python and numpy calls, in entries
CHUNK_AMPLITUDES = 2 ** 18  # amplitudes (4 MiB) reduced to metrics at once


@dataclass(frozen=True)
class PropagatorConfig:
    method: str = EIGEN_ORACLE
    sample_every_fs: float | None = None   # widest sample gap; defaults to total_time / 200
    norm_tol: float = 1e-8
    duration_key: str | None = None   # the --set key of the duration, if any

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


def _occupied_blocks(H: HermitianOperator, psi0: StateVector
                     ) -> list[np.ndarray]:
    """The blocks of H where psi0 has weight: H never joins two blocks, so
    every other block stays exactly zero."""
    support = psi0.amplitudes != 0
    # a zero state stays zero under any one block
    return [idx for idx in H.blocks() if support[idx].any()] or H.blocks()[:1]


@dataclass(frozen=True, eq=False)
class _Plan:
    """How one propagation runs, and its predicted cost."""

    route: str
    probe: bool                 # FIXED_STEP probes once instead of streaming
    intervals: int              # math.inf above MAX_INTERVALS
    blocks: list                # the occupied blocks of H, all solved
    work: float                 # stored entries touched
    bytes: float                # peak bytes held
    dt: float = 0.0
    centres: np.ndarray | None = None   # each solved state's block centre
    radius: float = 0.0         # half the widest solved block's interval
    terms: int = 0              # Chebyshev coefficients a step
    drift: float = 0.0          # norm rounded away, 2**-53 a Chebyshev term


def _spectrum(H: HermitianOperator, blocks: list[np.ndarray]):
    """(each solved state's block centre, radius, e) of FIXED_STEP, from the
    Gershgorin intervals of the solved blocks."""
    order = np.concatenate(blocks)
    sizes = np.array([idx.size for idx in blocks])
    label = np.full(H.dimension, -1)   # block of each state, -1 unsolved
    label[order] = np.repeat(np.arange(len(blocks)), sizes)
    upper = H.upper.tocoo()
    ends = [label[i[upper.data != 0]] for i in (upper.row, upper.col)]
    if np.any(ends[0] != ends[1]):
        raise PropagationError(
            "a coupling of H joins two blocks, so the block centres do not "
            "commute with H: H.blocks() does not follow H's couplings")
    starts, radii = np.cumsum(sizes) - sizes, H.gershgorin_radii()[order]
    lo = np.minimum.reduceat(H.diag[order] - radii, starts)
    hi = np.maximum.reduceat(H.diag[order] + radii, starts)
    # small pad keeps the map inside [-1, 1]
    return (np.repeat(0.5 * (hi + lo), sizes),
            float(0.5 * np.max(hi - lo) * 1.01 + 1e-12),
            2 * order.size + 2 * int(np.count_nonzero(ends[0] >= 0)))


def _plan(H: HermitianOperator, psi0: StateVector, total_time_fs: float,
          cfg: PropagatorConfig) -> _Plan:
    """The plan of one propagation: the one place a cost meets a budget."""
    if H.basis != psi0.basis:
        raise BasisError("operator and state live on different bases")
    if not (np.isfinite(H.diag).all() and np.isfinite(H.upper.data).all()):
        raise DomainError("H has a non-finite entry: an input lies outside "
                          "the range the model can represent")
    if not math.isfinite(float(np.abs(H.diag).max(initial=0.0))
                         * total_time_fs / _HBAR):
        raise DomainError(f"the phase span max|diag H| T / hbar of a "
                          f"{total_time_fs:.6g} fs run is not finite")
    blocks = _occupied_blocks(H, psi0)
    sizes = np.array([idx.size for idx in blocks], dtype=float)
    states, width = int(sizes.sum()), int(sizes.max())
    squares, cubes = float(np.sum(sizes ** 2)), float(np.sum(sizes ** 3))
    spectrum = _spectrum(H, blocks) if cfg.method == FIXED_STEP else None

    def price(method, t, gap) -> _Plan:
        """The plan of t fs sampled every gap fs (t / 200 if None)."""
        ratio = (t / gap if gap else 200.0) if t else 0.0
        if not ratio <= MAX_INTERVALS:
            return _Plan(method, False, math.inf, blocks, math.inf, math.inf)
        # forgiving a relative rounding error of 1e-12 in t / gap
        k = max(math.ceil(ratio * (1.0 - 1e-12)), 1) if t else 0
        samples = k * (H.dimension + SAMPLE_WORK)
        if method == EIGEN_ORACLE:
            return _Plan(method, False, k, blocks, cubes + k * squares
                         + samples, 64.0 * squares)
        if not k:
            return _Plan(method, False, 0, blocks, 0.0, 0.0)
        centres, radius, e = spectrum
        z = radius * (t / k) / _HBAR
        n = z + 15.0 * (z + 16.0) ** (1.0 / 3.0) + 24.0
        n = math.ceil(n) + 1 if n < 2.0 ** 60 else math.inf
        probed, streamed = n * width * e + k * squares, k * n * e
        probe = probed < streamed and 64 * states * width + 32 * n <= MAX_BYTES
        return _Plan(method, probe, k, blocks,
                     (probed if probe else streamed) + samples,
                     64 * states * (width if probe else 1) + 32 * n,
                     t / k, centres, radius, n, k * n * 2.0 ** -53)

    def fits(plan: _Plan) -> bool:
        return (plan.intervals <= MAX_INTERVALS and plan.work <= MAX_WORK
                and plan.bytes <= MAX_BYTES and plan.drift <= cfg.norm_tol)

    T, gap = total_time_fs, cfg.sample_every_fs
    plan = price(cfg.method, T, gap)
    if fits(plan):
        return plan
    spectrum = spectrum or _spectrum(H, blocks)   # to price FIXED_STEP
    if plan.intervals > MAX_INTERVALS:
        what = (f"sampling {T:.6g} fs every {gap or T / 200:.6g} fs takes "
                f"more than {MAX_INTERVALS} intervals; raise sample_every_fs")
    else:
        over = [f"{name} = {limit:.3g}" for name, cost, limit in (
            ("MAX_WORK", plan.work, MAX_WORK), ("MAX_BYTES", plan.bytes,
            MAX_BYTES), ("norm_tol", plan.drift, cfg.norm_tol))
            if cost > limit]
        what = (f"the eigen route on {states} states in blocks of up to "
                f"{width} states" if plan.route == EIGEN_ORACLE else
                f"{plan.intervals} Chebyshev steps of {plan.dt:.4g} fs, about "
                f"{plan.terms:.3g} terms each, "
                f"{'probed' if plan.probe else 'streamed'} on {states} states")
        what += (f": about {plan.work:.3g} stored entries touched, "
                 f"{plan.bytes:.3g} bytes and a norm drift of "
                 f"{plan.drift:.2g}, above {' and '.join(over)}")
    # the narrowest sample gap under which each route fits, and the longest
    # duration under which this one does
    gaps = [float(f"{T / MAX_INTERVALS ** (1 - j / 96):.4g}")
            for j in range(97)]
    ways = []
    other = {EIGEN_ORACLE: FIXED_STEP, FIXED_STEP: EIGEN_ORACLE}[cfg.method]
    for method in (cfg.method, other):
        on = "" if method == cfg.method else " on " + (
            "FIXED_STEP" if method == FIXED_STEP else "the eigen route")
        fit = [gap] if on and fits(price(method, T, gap)) else [
            g for g in gaps if fits(price(method, T, g))][:1]
        sets = [f"propagator.method={method}"] * bool(on) + [
            f"propagator.sample_every_fs={g}" for g in fit if g != gap]
        ways.append(f"it fits{on} with --set {' --set '.join(sets)}"
                    if fit else f"no propagator.sample_every_fs fits it{on}")
    spans = [float(f"{T * 2 ** (-j / 4):.4g}") for j in range(1, 400)]
    t = next((t for t in spans if fits(price(cfg.method, t, gap))), 0.0)
    if t:
        ways.insert(1, f"it fits with --set {cfg.duration_key}={t}"
                    if cfg.duration_key else f"it fits in {t} fs")
    raise (PropagationError if plan.route == EIGEN_ORACLE
           and plan.intervals <= MAX_INTERVALS else DomainError)(
        f"{what}; {'; '.join(ways)}")


def _eigen_route(H: HermitianOperator, psi0: StateVector, blocks: list):
    """times -> (len(times), dim) amplitudes of V exp(-i L t / hbar) V^dag psi0,
    solving the blocks of H that the plan found occupied and priced."""
    w, v = H.eigensystem(blocks)
    coeff = v.conj().T @ psi0.amplitudes
    return lambda times: np.ascontiguousarray((v @ (
        np.exp(-1j * np.outer(w, times) / _HBAR) * coeff[:, None])).T)


def propagate_eigen(H: HermitianOperator, psi0: StateVector, t_fs: float
                    ) -> StateVector:
    """Exact evolution psi(t) = V exp(-i L t / hbar) V^dag psi0."""
    blocks = _plan(H, psi0, abs(t_fs), PropagatorConfig(
        sample_every_fs=abs(t_fs) or None)).blocks
    return StateVector(psi0.basis, _eigen_route(H, psi0, blocks)([t_fs])[0])


class _ChebyshevStepper:
    """exp(-i H dt / hbar) = exp(-i D dt / hbar) p(A) on the plan's solved
    blocks, zero on every other state: D holds the plan's centre of each
    solved state's block, and p is the Chebyshev expansion of
    exp(-i (H - D) dt / hbar) in A = (H - D) / radius on the solved states.
    Probed, p(A) runs once on the probe and a step is the sparse matrix u;
    streamed, u is None and each step runs p(A) on the state.
    """

    def __init__(self, H: HermitianOperator, plan: _Plan):
        self.order = order = np.concatenate(plan.blocks)
        sizes = np.array([idx.size for idx in plan.blocks])
        d, radius, self.dt = plan.centres, plan.radius, plan.dt
        ks = np.arange(plan.terms)
        bessel = special.jv(ks, radius * self.dt / _HBAR)
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
            None, 2.0 * (H.diag[order] - d) / radius,
            2.0 * sparse.triu(H.to_csr()[order][:, order], k=1, format="csr")
            / radius)
        self.phase = np.exp(-1j * d * self.dt / _HBAR)
        self.dimension = H.dimension
        self.u = None
        if not plan.probe:
            return
        # position in `order` of each solved state's block start, and the
        # state's column in its block
        width = int(sizes.max())
        first = np.repeat(np.cumsum(sizes) - sizes, sizes)
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
    plan = _plan(H, psi0, total_time_fs, cfg)

    times = np.linspace(0.0, total_time_fs, plan.intervals + 1)
    pops = np.empty((times.size, basis.num_electrons, basis.sideband_count))
    ph_mean, entropy, norms = (np.empty(times.size) for _ in range(3))
    psi0.require_normalized(max(cfg.norm_tol, 1e-9))

    if plan.route == EIGEN_ORACLE:
        evolve = _eigen_route(H, psi0, plan.blocks)
    elif plan.intervals:
        step = _ChebyshevStepper(H, plan).step
    amps = psi0.amplitudes
    chunk = max(CHUNK_AMPLITUDES // basis.dimension, 1)
    for a in range(0, times.size, chunk):
        b = min(a + chunk, times.size)
        if plan.route == EIGEN_ORACLE:
            batch = evolve(times[a:b])
        else:
            batch = np.empty((b - a, basis.dimension), dtype=np.complex128)
            for k in range(a, b):
                amps = batch[k - a] = step(amps) if k else amps
        pops[a:b], ph_mean[a:b], entropy[a:b], norms[a:b] = \
            state_metrics(basis, batch)
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
