"""Truncated sideband (x) Fock Hilbert space and state/operator algebra.

Index convention: the flat index runs electron-major with the photon index
varying fastest, flat = ((n1_idx*S + n2_idx)*S + ...)*(N_max+1) + m.
BasisSpec.index_grids is the one place that layout is spelled out; the
Hamiltonian builders and the qubit-block extractors read it from there.
Sideband windows are stored in increasing order, so the computational pair
appears as (-1/2, +1/2); computational-block extraction reorders to the
(e, g) = (+1/2, -1/2) gate convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import special

from .errors import BasisError, DomainError, TruncationError

__all__ = [
    "BasisSpec",
    "StateVector",
    "DensityOperator",
    "make_basis",
    "qubit_window",
    "default_window",
    "default_fock_cutoff",
    "poisson_cutoff",
    "coherent_state",
    "qubit_factor",
    "basis_ket",
    "fock_ket",
    "tensor_product",
    "partial_trace",
    "reduce_operator",
    "computational_block",
    "computational_labels",
    "computational_state_vector",
    "electron_populations",
    "sideband_populations",
    "sideband_leakage",
    "photon_populations",
    "photon_number_mean",
    "uhlmann_fidelity",
    "pure_target_fidelity",
    "schmidt_entropy",
    "von_neumann_entropy",
    "purity",
]

E_LABEL = 0.5   # |e> sideband index
G_LABEL = -0.5  # |g> sideband index


def qubit_window() -> tuple[float, ...]:
    return (G_LABEL, E_LABEL)


def default_window(count: int = 6) -> tuple[float, ...]:
    """Symmetric half-integer window of the given even size, e.g. -5/2..5/2."""
    if count < 2 or count % 2:
        raise BasisError("sideband window size must be even and >= 2")
    half = count // 2
    return tuple(n + 0.5 for n in range(-half, half))


@dataclass(frozen=True)
class BasisSpec:
    """Truncated basis: num_electrons sideband ladders sharing one Fock mode."""

    num_electrons: int
    sideband_indices: tuple[float, ...]
    fock_cutoff: int

    def __post_init__(self):
        if self.num_electrons < 1:
            raise BasisError("need at least one electron")
        if self.fock_cutoff < 0:
            raise BasisError("fock_cutoff must be >= 0")
        win = self.sideband_indices
        if len(win) < 2:
            raise BasisError("sideband window needs at least two levels")
        steps = [round(2 * (b - a)) for a, b in zip(win, win[1:])]
        if any(s != 2 for s in steps):
            raise BasisError("sideband indices must be strictly increasing "
                             "with unit steps")
        if any(round(2 * n) % 2 == 0 for n in win):
            raise BasisError("sideband indices must be half-integers")
        if E_LABEL not in win or G_LABEL not in win:
            raise BasisError("window must contain the computational pair +-1/2")

    @property
    def sideband_count(self) -> int:
        return len(self.sideband_indices)

    @property
    def photon_dim(self) -> int:
        return self.fock_cutoff + 1

    @property
    def dimension(self) -> int:
        return self.sideband_count ** self.num_electrons * self.photon_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.sideband_count,) * self.num_electrons + (self.photon_dim,)

    def sideband_position(self, label: float) -> int:
        try:
            return self.sideband_indices.index(label)
        except ValueError:
            raise BasisError(f"sideband {label} not in window") from None

    def encode(self, labels: Sequence[float], photon_n: int) -> int:
        """Flat index of (n_1, ..., n_N, m)."""
        if len(labels) != self.num_electrons:
            raise BasisError("wrong number of electron labels")
        if not 0 <= photon_n <= self.fock_cutoff:
            raise BasisError(f"photon number {photon_n} outside cutoff")
        flat = 0
        for lab in labels:
            flat = flat * self.sideband_count + self.sideband_position(lab)
        return flat * self.photon_dim + photon_n

    def decode(self, flat: int) -> tuple[tuple[float, ...], int]:
        """Inverse of encode."""
        if not 0 <= flat < self.dimension:
            raise BasisError(f"flat index {flat} out of range")
        flat, m = divmod(flat, self.photon_dim)
        labels = []
        for _ in range(self.num_electrons):
            flat, pos = divmod(flat, self.sideband_count)
            labels.append(self.sideband_indices[pos])
        return tuple(reversed(labels)), m

    def index_grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flat, labels, photon) grids on self.shape.

        flat holds each state's flat index, labels[e] the sideband label of
        electron e (shape (num_electrons, *self.shape)), photon its Fock
        number.  Builders and block extractors read the layout from here.
        """
        pos = np.indices(self.shape)
        labels = np.asarray(self.sideband_indices)[pos[:-1]]
        return np.arange(self.dimension).reshape(self.shape), labels, pos[-1]


def make_basis(num_electrons: int, sideband_window: Iterable[float],
               fock_cutoff: int) -> BasisSpec:
    """Build a BasisSpec from a window of half-integer sideband indices."""
    return BasisSpec(num_electrons=num_electrons,
                     sideband_indices=tuple(sorted(sideband_window)),
                     fock_cutoff=int(fock_cutoff))


def _poisson_logpmf(m, nbar: float):
    """log P(n = m) of Poisson(nbar)."""
    return special.xlogy(m, nbar) - special.gammaln(m + 1) - nbar


def poisson_cutoff(nbar: float, tail_tol: float) -> int:
    """Smallest cutoff m with Poisson(nbar) tail mass P(n > m) < tail_tol,
    found by bisection on the monotone tail."""
    if not 0 < tail_tol <= 1:
        raise DomainError(f"tail_tol {tail_tol} outside (0, 1]")
    lo, hi = -1, max(int(nbar), 1)   # P(n > lo) >= tail_tol > P(n > hi)
    while special.pdtrc(hi, nbar) >= tail_tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if special.pdtrc(mid, nbar) >= tail_tol:
            lo = mid
        else:
            hi = mid
    return hi


def default_fock_cutoff(alpha: complex) -> int:
    """Cutoff rule ceil(|a|^2 + 6|a| + 10): Poisson tail < 1e-8 for |a| <= 12."""
    a = abs(alpha)
    return int(math.ceil(a * a + 6.0 * a + 10.0))


@dataclass
class StateVector:
    """Pure state on a BasisSpec."""

    basis: BasisSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.basis.dimension,):
            raise BasisError(f"amplitude vector has length {amp.shape}, basis "
                             f"dimension is {self.basis.dimension}")
        self.amplitudes = amp

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def require_normalized(self, tol: float = 1e-9) -> "StateVector":
        if not abs(self.norm - 1.0) <= tol:
            raise DomainError(f"state norm {self.norm} deviates from 1 "
                              f"beyond {tol}")
        return self

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.basis.shape)


@dataclass
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace operator on a subsystem."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)

    def validate(self, trace_tol: float = 1e-9, herm_tol: float = 1e-10,
                 psd_tol: float = 1e-10) -> "DensityOperator":
        m = self.matrix
        tr = np.trace(m)
        if not (abs(tr.real - 1.0) <= trace_tol and abs(tr.imag) <= trace_tol):
            raise DomainError(f"trace {tr} deviates from 1")
        if not np.max(np.abs(m - m.conj().T)) <= herm_tol:
            raise DomainError("matrix is not Hermitian within tolerance")
        if np.linalg.eigvalsh(m).min() < -psd_tol:
            raise DomainError("matrix has negative eigenvalues beyond tolerance")
        return self


def coherent_state(alpha: complex, fock_cutoff: int,
                   tail_tol: float = 1e-8) -> np.ndarray:
    """Photon-factor amplitudes of |alpha> truncated at fock_cutoff.

    Amplitudes are exp(log P_m / 2 + i m arg(alpha)) with P_m the Poisson
    weight, evaluated in log space so large |alpha| does not underflow, and
    are renormalized after truncation.  Raises TruncationError with a cutoff
    hint when the discarded Poisson tail mass reaches tail_tol.
    """
    if fock_cutoff < 0:
        raise BasisError("fock_cutoff must be >= 0")
    nbar = abs(alpha) ** 2
    tail = float(special.pdtrc(fock_cutoff, nbar)) if nbar > 0 else 0.0
    if tail >= tail_tol:
        needed = poisson_cutoff(nbar, tail_tol)
        raise TruncationError(
            f"Poisson tail {tail:.3e} beyond cutoff {fock_cutoff} exceeds "
            f"{tail_tol:.1e}; need fock_cutoff >= {needed}",
            required_cutoff=needed)
    m = np.arange(fock_cutoff + 1)
    amps = np.exp(0.5 * _poisson_logpmf(m, nbar)
                  + 1j * m * np.angle(alpha))
    return amps / np.linalg.norm(amps)


def fock_ket(n: int, fock_cutoff: int) -> np.ndarray:
    """Photon factor |n>."""
    if not 0 <= n <= fock_cutoff:
        raise BasisError(f"Fock level {n} outside cutoff {fock_cutoff}")
    v = np.zeros(fock_cutoff + 1, dtype=np.complex128)
    v[n] = 1.0
    return v


def qubit_factor(theta: float, window: Sequence[float] = qubit_window()) -> np.ndarray:
    """Electron factor cos(theta/2)|e> + sin(theta/2)|g> on a sideband window."""
    v = np.zeros(len(window), dtype=np.complex128)
    v[list(window).index(E_LABEL)] = math.cos(theta / 2.0)
    v[list(window).index(G_LABEL)] = math.sin(theta / 2.0)
    return v


def basis_ket(basis: BasisSpec, labels: Sequence[float], photon_n: int = 0) -> StateVector:
    """Computational basis vector |n_1 ... n_N> (x) |m>."""
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    amps[basis.encode(labels, photon_n)] = 1.0
    return StateVector(basis, amps)


def tensor_product(basis: BasisSpec, factors: Sequence[np.ndarray]) -> StateVector:
    """Assemble a product state from per-electron factors plus a photon factor.

    Factor order matches the index codec: electron 1, ..., electron N, photon.
    """
    if len(factors) != basis.num_electrons + 1:
        raise BasisError(f"need {basis.num_electrons + 1} factors "
                         f"(electrons then photon), got {len(factors)}")
    sizes = [basis.sideband_count] * basis.num_electrons + [basis.photon_dim]
    amps = np.ones(1, dtype=np.complex128)
    for factor, size in zip(factors, sizes):
        f = np.asarray(factor, dtype=np.complex128).ravel()
        if f.shape != (size,):
            raise BasisError(f"factor of length {f.shape[0]} does not match "
                             f"subsystem dimension {size}")
        amps = np.kron(amps, f)
    return StateVector(basis, amps)


def _resolve_keep(basis: BasisSpec, keep) -> tuple[int, ...]:
    n_ax = basis.num_electrons + 1
    if isinstance(keep, str):
        if keep == "electrons":
            return tuple(range(basis.num_electrons))
        if keep == "photon":
            return (basis.num_electrons,)
        raise BasisError(f"invalid subsystem selector {keep!r}")
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    try:
        axes = tuple(sorted(int(k) for k in keep))
    except (TypeError, ValueError):
        raise BasisError(f"invalid subsystem selector {keep!r}") from None
    if not axes or len(set(axes)) != len(axes) \
            or any(a < 0 or a >= n_ax for a in axes):
        raise BasisError(f"invalid subsystem selector {keep!r}")
    return axes


def reduce_operator(mat: np.ndarray, shape: Sequence[int],
                    keep: Sequence[int]) -> np.ndarray:
    """Trace an operator on subsystems of sizes `shape` down to `keep`.

    Returns the square matrix on the kept subsystems, in keep's order; each
    traced subsystem shares one einsum index between row and column.
    """
    n = len(shape)
    cols = [n + a if a in keep else a for a in range(n)]
    d = math.prod(shape[a] for a in keep)
    return np.einsum(np.reshape(mat, tuple(shape) * 2), list(range(n)) + cols,
                     list(keep) + [n + a for a in keep]).reshape(d, d)


def partial_trace(obj, keep="electrons", basis: BasisSpec | None = None) -> DensityOperator:
    """Reduced density operator over the kept subsystems.

    keep is "electrons", "photon", or a sequence of subsystem axes (electron
    indices 0..N-1, the photon axis is N).
    """
    if isinstance(obj, StateVector):
        basis = obj.basis
        axes = _resolve_keep(basis, keep)
        traced = tuple(a for a in range(basis.num_electrons + 1) if a not in axes)
        psi = obj.tensor()
        rho = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    else:
        if basis is None:
            raise BasisError("partial_trace of a raw matrix needs a basis")
        axes = _resolve_keep(basis, keep)
        mat = obj.matrix if isinstance(obj, DensityOperator) else np.asarray(obj)
        rho = reduce_operator(mat, basis.shape, axes)
    d = int(round(math.sqrt(rho.size)))
    return DensityOperator(rho.reshape(d, d))


def computational_labels(num_qubits: int) -> tuple[str, ...]:
    """Basis labels 'e...e' ... 'g...g' of the qubit block, e-first ordering."""
    return tuple("".join(p) for p in itertools.product("eg", repeat=num_qubits))


def _qubit_block_index(basis: BasisSpec) -> np.ndarray:
    """Electron-subsystem flat indices of |e...e> ... |g...g> (e-first)."""
    pair = [basis.sideband_position(E_LABEL), basis.sideband_position(G_LABEL)]
    flat = basis.index_grids()[0]
    return flat[np.ix_(*[pair] * basis.num_electrons, [0])].ravel() \
        // basis.photon_dim


def computational_block(rho_electrons: np.ndarray | DensityOperator,
                        basis: BasisSpec) -> np.ndarray:
    """Project the reduced electron operator onto the +-1/2 qubit block.

    Rows/columns are reordered to the gate convention |e...e> ... |g...g>.
    The block is not renormalized: missing trace is sideband leakage.
    """
    mat = rho_electrons.matrix if isinstance(rho_electrons, DensityOperator) \
        else np.asarray(rho_electrons)
    if mat.shape != (basis.sideband_count ** basis.num_electrons,) * 2:
        raise BasisError("operator is not on the full electron subsystem")
    idx = _qubit_block_index(basis)
    return mat[np.ix_(idx, idx)]


def computational_state_vector(state: StateVector) -> np.ndarray:
    """Pure-state amplitudes on the qubit block, reordered to |e...e>..|g...g>.

    Requires a trivial photon factor (fock_cutoff = 0) and the +-1/2 window,
    i.e. a basis that already is the qubit register.
    """
    basis = state.basis
    if basis.photon_dim != 1 or basis.sideband_indices != qubit_window():
        raise BasisError("state is not on a bare qubit-register basis")
    return state.amplitudes[_qubit_block_index(basis)]


def electron_populations(state: StateVector | np.ndarray,
                         basis: BasisSpec | None = None) -> np.ndarray:
    """Occupation probabilities per electron and sideband.

    state is a StateVector, giving shape (num_electrons, sideband_count), or
    |amplitudes|^2 of shape (..., *basis.shape), giving
    (..., num_electrons, sideband_count) with the leading axes kept.
    """
    if isinstance(state, StateVector):
        probs, basis = np.abs(state.tensor()) ** 2, state.basis
    else:
        probs = state
    lead = probs.ndim - basis.num_electrons - 1
    axes = range(lead, probs.ndim)   # electrons, then the photon
    return np.stack([probs.sum(axis=tuple(a for a in axes if a != el))
                     for el in axes[:-1]], axis=-2)


def sideband_populations(state: StateVector, electron_index: int = 0) -> dict[float, float]:
    """Per-sideband occupation probabilities of one electron."""
    basis = state.basis
    if not 0 <= electron_index < basis.num_electrons:
        raise BasisError(f"no electron {electron_index}")
    pops = electron_populations(state)[electron_index]
    return {n: float(p) for n, p in zip(basis.sideband_indices, pops)}


def sideband_leakage(populations: np.ndarray, basis: BasisSpec) -> np.ndarray:
    """Weight outside +-1/2, averaged over electrons.

    populations has shape (..., num_electrons, sideband_count); the leading
    axes (samples, say) are kept.
    """
    pair = [basis.sideband_position(G_LABEL), basis.sideband_position(E_LABEL)]
    return 1.0 - populations[..., pair].sum(axis=-1).mean(axis=-1)


def photon_populations(state: StateVector) -> np.ndarray:
    probs = np.abs(state.tensor()) ** 2
    return probs.sum(axis=tuple(range(state.basis.num_electrons)))


def photon_number_mean(state: StateVector) -> float:
    pops = photon_populations(state)
    return float(np.dot(np.arange(pops.size), pops))


def _sqrtm_psd(mat: np.ndarray, psd_tol: float) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    if w.min() < -psd_tol:
        raise DomainError(f"operator has negative eigenvalue {w.min():.3e} "
                          "beyond tolerance")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, DensityOperator) \
        else np.asarray(op, dtype=np.complex128)


def _require_finite(*operands):
    if not all(np.all(np.isfinite(op)) for op in operands):
        raise DomainError("fidelity operands must be finite")


def _bounded_fidelity(f: float) -> float:
    if f > 1.0 + 1e-6:
        raise DomainError(f"fidelity {f} exceeds 1; operands are not "
                          "subnormalized density operators")
    return min(f, 1.0)


def uhlmann_fidelity(rho, sigma, psd_tol: float = 1e-10) -> float:
    """F = [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2 for two PSD operators.

    Evaluated as the squared trace norm of sqrt(rho) sqrt(sigma) (the same
    quantity), whose singular values are symmetric in the operands.
    """
    a, b = _matrix(rho), _matrix(sigma)
    if a.shape != b.shape:
        raise BasisError("fidelity operands must share a subsystem")
    _require_finite(a, b)
    sv = np.linalg.svd(_sqrtm_psd(a, psd_tol) @ _sqrtm_psd(b, psd_tol),
                       compute_uv=False)
    return _bounded_fidelity(float(np.sum(sv) ** 2))


def pure_target_fidelity(rho, target: np.ndarray) -> float:
    """F = <t|rho|t>: the Uhlmann fidelity of a PSD operator rho and the pure
    state |t><t|, without matrix square roots."""
    a, t = _matrix(rho), np.asarray(target, dtype=np.complex128)
    if t.ndim != 1 or a.shape != (t.size, t.size):
        raise BasisError("fidelity operands must share a subsystem")
    _require_finite(a, t)
    return _bounded_fidelity(max(float(np.real(np.vdot(t, a @ t))), 0.0))


def schmidt_entropy(amplitudes: np.ndarray, basis: BasisSpec) -> np.ndarray:
    """Electron-photon entanglement entropy, in nats, of pure states.

    amplitudes has shape (..., basis.dimension); each state is reshaped to
    its (electrons, photon) matrix, whose squared singular values p are the
    eigenvalues of either reduced density operator.  S = -sum p ln p over
    p > 1e-14, the cut of von_neumann_entropy.  Returns shape (...), NaN
    for a state with a non-finite amplitude.
    """
    psi = np.reshape(amplitudes, np.shape(amplitudes)[:-1]
                     + (-1, basis.photon_dim))
    finite = np.isfinite(psi).all(axis=(-2, -1))
    p = np.linalg.svd(np.where(finite[..., None, None], psi, 0.0),
                      compute_uv=False) ** 2
    kept = p > 1e-14
    terms = np.where(kept, -p * np.log(np.where(kept, p, 1.0)), 0.0)
    return np.where(finite, np.maximum(terms.sum(axis=-1), 0.0), np.nan)


def von_neumann_entropy(rho) -> float:
    """S = -Tr(rho ln rho) in nats; eigenvalues below 1e-14 count as zero."""
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
    w = np.linalg.eigvalsh(mat)
    w = w[w > 1e-14]
    return max(float(-np.sum(w * np.log(w))), 0.0)


def purity(rho) -> float:
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
    return float(np.real(np.trace(mat @ mat)))
