"""Builders for the quantized photon-electron Hamiltonians.

All matrices are in eV on a BasisSpec.  Constant diagonal offsets (the
hbar*omega_L/2 vacuum term and the electron center energy) are dropped from
every builder; they contribute a global phase only.  Operators are Hermitian
by construction: only the real diagonal and the strictly upper triangle are
stored, the mirror is generated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import BasisError, DomainError
from .hilbert import BasisSpec, E_LABEL, G_LABEL, StateVector, qubit_window
from .physpar import _HBAR, ScenarioParams

__all__ = [
    "ModelKind",
    "HermitianOperator",
    "build_pinem",
    "build_jc",
    "build_jc_interaction",
    "build_tc",
    "build_dispersive_xy",
    "excitation_observable",
    "build_model",
]

_DENSE_LIMIT = 256  # below this dimension matvecs run on the dense matrix


class ModelKind(enum.Enum):
    PINEM_FULL = "pinem_full"
    JC_LAB = "jc_lab"
    JC_INTERACTION = "jc_interaction"
    TC_LAB = "tc_lab"
    DISPERSIVE_XY = "dispersive_xy"


@dataclass
class HermitianOperator:
    """Sparse Hermitian matrix: real diagonal + strictly upper triangle.

    basis is None for an operator on states that no BasisSpec spans, such as
    the solved blocks of another operator.
    """

    basis: BasisSpec | None
    diag: np.ndarray
    upper: sparse.csr_matrix

    _csr: sparse.csr_matrix | None = field(default=None, repr=False)
    _dense: np.ndarray | None = field(default=None, repr=False)
    _blocks: list | None = field(default=None, repr=False)
    _eig: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=np.float64)
        n = self.diag.size
        if (self.diag.ndim != 1 or self.upper.shape != (n, n)
                or self.basis is not None and self.basis.dimension != n):
            raise BasisError("operator storage does not match basis dimension")
        low = sparse.tril(self.upper, k=0)
        if low.nnz:
            raise BasisError("upper storage contains diagonal/lower entries")

    @property
    def dimension(self) -> int:
        return self.diag.size

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.diag)) + 2 * self.upper.nnz

    def to_csr(self) -> sparse.csr_matrix:
        if self._csr is None:
            self._csr = (sparse.diags(self.diag) + self.upper
                         + self.upper.conj().T).tocsr()
        return self._csr

    def to_dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self.to_csr().toarray()
        return self._dense

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.dimension <= _DENSE_LIMIT:
            return self.to_dense() @ v
        return self.to_csr() @ v

    def diagonal(self) -> np.ndarray:
        return self.diag.copy()

    def expectation(self, state: StateVector | np.ndarray) -> float:
        v = state.amplitudes if isinstance(state, StateVector) else np.asarray(state)
        return float(np.real(np.vdot(v, self.matvec(v))))

    def blocks(self) -> list[np.ndarray]:
        """Flat indices of each connected block, each in increasing order:
        no element of H joins two blocks."""
        if self._blocks is None:
            _, comp = csgraph.connected_components(self.upper != 0,
                                                   directed=False)
            order = np.argsort(comp, kind="stable")
            self._blocks = np.split(order, np.cumsum(np.bincount(comp))[:-1])
        return self._blocks

    def eigensystem(self, blocks: Sequence[np.ndarray] | None = None
                    ) -> tuple[np.ndarray, sparse.csr_matrix]:
        """(w, V) of the given blocks of self.blocks(), every block by
        default (cached), from one stacked dense eigh per block size.

        Column k of the sparse V, of eigenvalue w[k], belongs to the k-th
        smallest flat index of the solved blocks and has its support in that
        index's block; with every block solved, V is square and block
        diagonal.
        """
        if blocks is None and self._eig is not None:
            return self._eig
        solve = self.blocks() if blocks is None else blocks
        h = self.to_csr()
        flat = np.sort(np.concatenate(solve))
        rank = np.empty(self.dimension, dtype=np.intp)  # column of each state
        rank[flat] = np.arange(flat.size)
        sizes = np.array([idx.size for idx in solve])
        w, rows, cols, vals = np.empty(flat.size), [], [], []
        for size in np.unique(sizes):
            idx = np.stack([solve[k] for k in np.flatnonzero(sizes == size)])
            sub = h[idx.ravel()][:, idx.ravel()].tocoo()   # block diagonal
            stack = np.zeros((len(idx), size, size), dtype=np.complex128)
            stack[sub.row // size, sub.row % size, sub.col % size] = sub.data
            w_g, v_g = np.linalg.eigh(stack)
            w[rank[idx]] = w_g
            rows.append(np.broadcast_to(idx[:, :, None], v_g.shape).ravel())
            cols.append(np.broadcast_to(rank[idx][:, None, :],
                                        v_g.shape).ravel())
            vals.append(v_g.ravel())
        v = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dimension, flat.size))
        if blocks is None:
            self._eig = (w, v)
        return w, v

    def gershgorin_radii(self) -> np.ndarray:
        """Radius of each row's Gershgorin disc: its off-diagonal |h| sum."""
        offdiag = self.to_csr().copy()
        offdiag.setdiag(0.0)
        return np.asarray(np.abs(offdiag).sum(axis=1)).ravel()

    def gershgorin_interval(self) -> tuple[float, float]:
        """Rigorous enclosure [lo, hi] of the spectrum from Gershgorin discs."""
        radius = self.gershgorin_radii()
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))


def _operator(basis: BasisSpec, diag: np.ndarray,
              couplings: Sequence[tuple] = ()) -> HermitianOperator:
    """HermitianOperator from a diagonal grid and (i, j, value) grids.

    Each coupling joins flat indices i and j (i != j) with the given value;
    it is stored once, in the strictly upper triangle.
    """
    n = basis.dimension
    i, j, v = (np.concatenate([np.ravel(c[k]) for c in couplings]
                              + [np.zeros(0)]) for k in range(3))
    i, j = i.astype(np.intp), j.astype(np.intp)
    upper = sparse.csr_matrix(
        (v.astype(np.complex128), (np.minimum(i, j), np.maximum(i, j))),
        shape=(n, n))
    upper.sum_duplicates()
    return HermitianOperator(basis, np.ravel(diag), upper)


def _ladder(basis: BasisSpec, electrons, rate_eV: float,
            kn_slope: float | None = None) -> list[tuple]:
    """rate*sqrt(m+1) couplings (n, m) <-> (n-1, m+1) of the given electrons.

    With kn_slope each element is scaled by 1 + (n-1)*kn_slope.
    """
    flat, labels, photon = basis.index_grids()
    out = []
    for el in electrons:
        # electron axis first: [1:, ..., :-1] holds (n, m),
        # [:-1, ..., 1:] the partner (n-1, m+1)
        f, lab, m = (np.moveaxis(x, el, 0) for x in (flat, labels[el], photon))
        value = rate_eV * np.sqrt(m[1:, ..., :-1] + 1)
        if kn_slope is not None:
            value = value * (1.0 + lab[:-1, ..., 1:] * kn_slope)
        out.append((f[1:, ..., :-1], f[:-1, ..., 1:], value))
    return out


def build_pinem(params: ScenarioParams, basis: BasisSpec) -> HermitianOperator:
    """Full multi-sideband Hamiltonian with one shared quantized mode.

    Diagonal: n*hbar*v0*q + n^2*hbar*omega_rec*dispersion_scale per electron
    plus hbar*omega_L*m.  Off-diagonal: hbar*g*sqrt(m+1) ladder elements
    between (n-1, m+1) and (n, m); with exact_kn each element is scaled by
    k_{n-1}/k0 instead of the k_n ~ k0 approximation.
    """
    if basis.sideband_count < 2:
        raise BasisError("PINEM needs at least two sidebands")
    wq = params.qubit_splitting_rad_per_fs
    w_rec = params.coupling.omega_rec_rad_per_fs * params.dispersion_scale
    wl = params.drive.omega_L_rad_per_fs
    g = params.coupling.g_rad_per_fs
    q_over_k0 = params.drive.q_per_m / params.electron.k0_per_m

    _, labels, photon = basis.index_grids()
    site = _HBAR * (labels * wq + labels * labels * w_rec)
    diag = site.sum(axis=0) + _HBAR * wl * photon
    return _operator(basis, diag, _ladder(
        basis, range(basis.num_electrons), _HBAR * g,
        q_over_k0 if params.exact_kn else None))


def _require_qubit_window(basis: BasisSpec):
    if basis.sideband_indices != qubit_window():
        raise BasisError("this model requires exactly the +-1/2 sideband pair")


def build_jc(params: ScenarioParams, basis: BasisSpec) -> HermitianOperator:
    """(hbar v0 q/2) sigma_z + hbar omega_L a^dag a + hbar g (s+ a + s- a^dag)."""
    _require_qubit_window(basis)
    if basis.num_electrons != 1:
        raise BasisError("build_jc is single-electron; use build_tc for N > 1")
    return build_tc(params, basis)


def build_tc(params: ScenarioParams, basis: BasisSpec,
             active: tuple[int, ...] | None = None) -> HermitianOperator:
    """Tavis-Cummings: per-electron JC terms sharing one photon mode.

    active restricts the coupling to a subset of electrons (drive addressing);
    idle electrons keep their sigma_z term but exchange no photons.
    """
    _require_qubit_window(basis)
    wq = params.qubit_splitting_rad_per_fs
    wl = params.drive.omega_L_rad_per_fs
    g = params.coupling.g_rad_per_fs
    if active is None:
        active = tuple(range(basis.num_electrons))
    if any(not 0 <= el < basis.num_electrons for el in active):
        raise BasisError(f"active electrons {active} outside basis")

    _, labels, photon = basis.index_grids()
    sz = (2.0 * labels).sum(axis=0)
    diag = _HBAR * (wq * sz / 2.0 + wl * photon)
    return _operator(basis, diag, _ladder(basis, active, _HBAR * g))


def build_jc_interaction(g_rad_per_fs: float, basis: BasisSpec) -> HermitianOperator:
    """Interaction-picture JC at resonance: hbar g (s+ a + s- a^dag) only."""
    _require_qubit_window(basis)
    return _operator(basis, np.zeros(basis.dimension), _ladder(
        basis, range(basis.num_electrons), _HBAR * g_rad_per_fs))


def build_dispersive_xy(J_rad_per_fs: float, basis: BasisSpec,
                        pair: tuple[int, int] = (0, 1)) -> HermitianOperator:
    """Effective exchange hbar J (s+_i s-_j + s-_i s+_j) on one qubit pair.

    J may carry the physical sign g^2/(v0 q - omega_L).  The photon factor is
    ignored (kept as an identity), matching the adiabatic elimination.
    """
    _require_qubit_window(basis)
    i_el, j_el = pair
    if i_el == j_el or any(not 0 <= e < basis.num_electrons for e in pair):
        raise BasisError(f"invalid qubit pair {pair}")
    pos_e = basis.sideband_position(E_LABEL)
    pos_g = basis.sideband_position(G_LABEL)
    flat = np.moveaxis(basis.index_grids()[0], (i_el, j_el), (0, 1))
    eg, ge = flat[pos_e, pos_g], flat[pos_g, pos_e]
    return _operator(basis, np.zeros(basis.dimension),
                     [(eg, ge, np.full(eg.shape, _HBAR * J_rad_per_fs))])


def excitation_observable(basis: BasisSpec) -> HermitianOperator:
    """N_tot = sum_e sum_n n c^dag_n c_n + a^dag a (diagonal, dimensionless)."""
    _, labels, photon = basis.index_grids()
    return _operator(basis, labels.sum(axis=0) + photon)


def build_model(kind: ModelKind, params: ScenarioParams, basis: BasisSpec,
                active: tuple[int, ...] | None = None) -> HermitianOperator:
    """Dispatch a ModelKind to its builder with scenario-derived parameters."""
    if kind == ModelKind.PINEM_FULL:
        return build_pinem(params, basis)
    if kind == ModelKind.JC_LAB:
        return build_jc(params, basis)
    if kind == ModelKind.JC_INTERACTION:
        return build_jc_interaction(params.coupling.g_rad_per_fs, basis)
    if kind == ModelKind.TC_LAB:
        return build_tc(params, basis, active=active)
    if kind == ModelKind.DISPERSIVE_XY:
        if params.coupling.J_signed_rad_per_fs is None:
            raise DomainError("dispersive model needs a nonzero detuning")
        pair = active if active is not None else (0, 1)
        return build_dispersive_xy(params.coupling.J_signed_rad_per_fs, basis,
                                   pair=tuple(pair))
    raise DomainError(f"unknown model kind {kind}")
