"""Physical constants, scenario parameters, and the derivation pipeline.

Internal unit system: energies in eV, times in fs, angular frequencies in
rad/fs, lengths in nm.  SI values appear only at input/output boundaries
(field amplitudes in V/m, quantization volumes in m^3, wavenumbers in 1/m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, GratingError

__all__ = [
    "Constants",
    "CODATA2018",
    "ElectronParams",
    "DriveParams",
    "ModeQuantization",
    "DerivedCoupling",
    "ScenarioParams",
    "ev_to_rad_per_fs",
    "rad_per_fs_to_ev",
    "wavelength_nm",
    "derive_electron",
    "single_photon_amplitude",
    "quantization_volume",
    "coupling_constant",
    "make_scenario",
    "sideband_energy",
    "transition_detuning",
    "classical_grating_period",
    "quantum_grating_period",
]


@dataclass(frozen=True)
class Constants:
    """Physical constants (CODATA 2018), SI plus the eV·fs form of hbar."""

    e: float = 1.602176634e-19            # elementary charge, C
    m_e: float = 9.1093837015e-31         # electron mass, kg
    eps0: float = 8.8541878128e-12        # vacuum permittivity, F/m
    hbar_J_s: float = 1.054571817e-34     # reduced Planck constant, J s
    c: float = 299792458.0                # speed of light, m/s

    def __post_init__(self):
        for name in ("e", "m_e", "eps0", "hbar_J_s", "c"):
            if getattr(self, name) <= 0:
                raise DomainError(f"constant {name} must be strictly positive")

    @property
    def hbar_eV_fs(self) -> float:
        return self.hbar_J_s / self.e * 1e15

    @property
    def c_nm_per_fs(self) -> float:
        return self.c * 1e-6


CODATA2018 = Constants()
_HBAR = CODATA2018.hbar_eV_fs


def ev_to_rad_per_fs(energy_eV: float) -> float:
    """Convert an energy in eV to an angular frequency in rad/fs."""
    return energy_eV / _HBAR


def rad_per_fs_to_ev(omega_rad_per_fs: float) -> float:
    """Convert an angular frequency in rad/fs to an energy in eV."""
    return omega_rad_per_fs * _HBAR


def wavelength_nm(omega_rad_per_fs: float) -> float:
    """Free-space wavelength (nm) of an angular frequency (rad/fs)."""
    if omega_rad_per_fs <= 0:
        raise DomainError("omega must be positive")
    return 2.0 * math.pi * CODATA2018.c_nm_per_fs / omega_rad_per_fs


@dataclass(frozen=True)
class ElectronParams:
    """Electron kinematics, all derived from beta."""

    beta: float
    gamma: float
    v0_m_per_s: float
    k0_per_m: float
    p0_kg_m_per_s: float

    @property
    def v0_nm_per_fs(self) -> float:
        return self.v0_m_per_s * 1e-6


def derive_electron(beta: float) -> ElectronParams:
    """Expand the relativistic dispersion around the injection momentum.

    beta must lie strictly inside (0, 1).
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must be in (0, 1), got {beta}")
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    v0 = beta * CODATA2018.c
    p0 = gamma * CODATA2018.m_e * v0
    k0 = p0 / CODATA2018.hbar_J_s
    return ElectronParams(beta=beta, gamma=gamma,
                          v0_m_per_s=v0, k0_per_m=k0, p0_kg_m_per_s=p0)


@dataclass(frozen=True)
class DriveParams:
    """Single quantized Bloch mode driving the grating near field."""

    omega_L_rad_per_fs: float
    photon_energy_eV: float
    wavelength_nm: float
    alpha: complex
    grating_period_nm: float
    incidence_theta_rad: float

    @property
    def q_per_nm(self) -> float:
        return 2.0 * math.pi / self.grating_period_nm

    @property
    def q_per_m(self) -> float:
        return self.q_per_nm * 1e9


@dataclass(frozen=True)
class ModeQuantization:
    """Single-photon field amplitude, from a box volume or given directly."""

    E_z_tilde_V_per_m: float
    box_volume_m3: float | None
    authoritative: str  # "volume" or "amplitude"

    def __post_init__(self):
        if self.E_z_tilde_V_per_m <= 0:
            raise DomainError("single-photon amplitude must be positive")


def single_photon_amplitude(omega_L_rad_per_fs: float, V_L_m3: float) -> float:
    """Vacuum field amplitude sqrt(hbar*omega_L / (2*eps0*V_L)) in V/m."""
    if omega_L_rad_per_fs <= 0 or V_L_m3 <= 0:
        raise DomainError("omega_L and V_L must be positive")
    photon_energy_J = omega_L_rad_per_fs * 1e15 * CODATA2018.hbar_J_s
    return math.sqrt(photon_energy_J / (2.0 * CODATA2018.eps0 * V_L_m3))


def quantization_volume(omega_L_rad_per_fs: float,
                        E_z_tilde_V_per_m: float) -> float:
    """Inverse query: box volume (m^3) that yields a given vacuum amplitude."""
    if omega_L_rad_per_fs <= 0 or E_z_tilde_V_per_m <= 0:
        raise DomainError("omega_L and E_z_tilde must be positive")
    photon_energy_J = omega_L_rad_per_fs * 1e15 * CODATA2018.hbar_J_s
    try:
        volume = photon_energy_J / (2.0 * CODATA2018.eps0
                                    * E_z_tilde_V_per_m ** 2)
    except (OverflowError, ZeroDivisionError):
        volume = math.nan
    if not 0.0 < volume < math.inf:
        raise DomainError(
            f"E_z_tilde_V_per_m = {E_z_tilde_V_per_m:.6g} V/m puts the "
            f"quantization volume outside the floating-point range")
    return volume


@dataclass(frozen=True)
class DerivedCoupling:
    """Coupling constants derived from electron + drive + mode quantization.

    g_rad_per_fs is the magnitude used for scheduling; the physical sign of
    -e*E_z*k0/(2*gamma*m_e*omega_L) is retained in g_signed_rad_per_fs.
    delta_signed is v0*q - omega_L; J is defined only for nonzero detuning.
    """

    g_rad_per_fs: float
    g_signed_rad_per_fs: float
    delta_rad_per_fs: float
    delta_signed_rad_per_fs: float
    J_rad_per_fs: float | None
    J_signed_rad_per_fs: float | None
    omega_rec_rad_per_fs: float
    g_over_omega: float

    _RESONANCE_TOL = 1e-12

    @property
    def resonant(self) -> bool:
        return self.delta_rad_per_fs <= self._RESONANCE_TOL


def coupling_constant(electron: ElectronParams, drive: DriveParams,
                      mode: ModeQuantization) -> DerivedCoupling:
    """Evaluate g = -e*Ez~*k0/(2*gamma*m_e*omega_L) plus detuning, J, recoil."""
    omega_SI = drive.omega_L_rad_per_fs * 1e15
    g_signed_SI = (-CODATA2018.e * mode.E_z_tilde_V_per_m * electron.k0_per_m
                   / (2.0 * electron.gamma * CODATA2018.m_e * omega_SI))
    g_signed = g_signed_SI * 1e-15
    g = abs(g_signed)

    v0q = electron.v0_nm_per_fs * drive.q_per_nm        # rad/fs
    delta_signed = v0q - drive.omega_L_rad_per_fs
    delta = abs(delta_signed)

    q_SI = drive.q_per_m
    omega_rec = (CODATA2018.hbar_J_s * q_SI * q_SI
                 / (2.0 * electron.gamma ** 3 * CODATA2018.m_e)) * 1e-15

    if delta > DerivedCoupling._RESONANCE_TOL:
        J = g * g / delta
        J_signed = g * g / delta_signed
    else:
        J = None
        J_signed = None

    return DerivedCoupling(
        g_rad_per_fs=g,
        g_signed_rad_per_fs=g_signed,
        delta_rad_per_fs=delta,
        delta_signed_rad_per_fs=delta_signed,
        J_rad_per_fs=J,
        J_signed_rad_per_fs=J_signed,
        omega_rec_rad_per_fs=omega_rec,
        g_over_omega=g / drive.omega_L_rad_per_fs,
    )


@dataclass(frozen=True)
class ScenarioParams:
    """Bundle of all physical inputs and derived quantities for one scenario.

    dispersion_scale multiplies the quadratic (recoil) term of the sideband
    dispersion in the PINEM builder only; 1.0 is the physical value.  The
    published gate dynamics are reproduced with the compatibility value 100
    (see the presets and README notes).  exact_kn enables the k_n-dependent
    ladder scaling instead of the k_n ~ k0 approximation.
    """

    electron: ElectronParams
    drive: DriveParams
    mode: ModeQuantization
    coupling: DerivedCoupling
    dispersion_scale: float = 1.0
    exact_kn: bool = False

    @property
    def qubit_splitting_rad_per_fs(self) -> float:
        """v0*q, the +1/2 <-> -1/2 transition frequency (curvature cancels)."""
        return self.electron.v0_nm_per_fs * self.drive.q_per_nm


def make_scenario(*, beta: float, photon_energy_eV: float,
                  alpha: complex = 0j,
                  grating_period_nm: float | None = None,
                  phase_match_photon_energy_eV: float | None = None,
                  box_edge_nm: float | None = None,
                  box_volume_m3: float | None = None,
                  E_z_tilde_V_per_m: float | None = None,
                  incidence_theta_rad: float = 0.0,
                  dispersion_scale: float = 1.0,
                  exact_kn: bool = False) -> ScenarioParams:
    """Assemble a ScenarioParams from raw inputs, deriving everything else.

    The grating period is either given explicitly or phase-matched to a
    reference photon energy (the drive's own energy by default).  Exactly one
    of box_edge_nm / box_volume_m3 / E_z_tilde_V_per_m selects the mode
    quantization.
    """
    if photon_energy_eV <= 0:
        raise DomainError("photon energy must be positive")
    electron = derive_electron(beta)
    omega_L = ev_to_rad_per_fs(photon_energy_eV)

    if grating_period_nm is None:
        ref_eV = (phase_match_photon_energy_eV
                  if phase_match_photon_energy_eV is not None else photon_energy_eV)
        ref_lambda = wavelength_nm(ev_to_rad_per_fs(ref_eV))
        grating_period_nm = classical_grating_period(ref_lambda, beta)
    elif grating_period_nm <= 0:
        raise DomainError("grating period must be positive")

    drive = DriveParams(
        omega_L_rad_per_fs=omega_L,
        photon_energy_eV=photon_energy_eV,
        wavelength_nm=wavelength_nm(omega_L),
        alpha=complex(alpha),
        grating_period_nm=grating_period_nm,
        incidence_theta_rad=incidence_theta_rad,
    )

    given = [v is not None for v in (box_edge_nm, box_volume_m3, E_z_tilde_V_per_m)]
    if sum(given) != 1:
        raise DomainError("give exactly one of box_edge_nm, box_volume_m3, "
                          "E_z_tilde_V_per_m")
    if box_edge_nm is not None:
        if box_edge_nm <= 0:
            raise DomainError("box edge must be positive")
        try:
            volume = (box_edge_nm * 1e-9) ** 3
        except OverflowError:
            volume = math.inf
        if not 0.0 < volume < math.inf:
            raise DomainError(
                f"box_edge_nm = {box_edge_nm:.6g} nm puts the box volume "
                f"outside the floating-point range")
        mode = ModeQuantization(single_photon_amplitude(omega_L, volume),
                                volume, authoritative="volume")
    elif box_volume_m3 is not None:
        mode = ModeQuantization(single_photon_amplitude(omega_L, box_volume_m3),
                                box_volume_m3, authoritative="volume")
    else:
        # volume back-computed as metadata
        mode = ModeQuantization(E_z_tilde_V_per_m,
                                quantization_volume(omega_L, E_z_tilde_V_per_m),
                                authoritative="amplitude")

    coupling = coupling_constant(electron, drive, mode)
    return ScenarioParams(electron=electron, drive=drive, mode=mode,
                          coupling=coupling,
                          dispersion_scale=dispersion_scale, exact_kn=exact_kn)


def sideband_energy(n: float, params: ScenarioParams) -> float:
    """On-site energy E_n = n*hbar*v0*q + n^2*hbar*omega_rec, in eV.

    Measured from the injection energy, which cancels from every energy
    difference.  Physical dispersion; the builder-level dispersion_scale does
    not enter here.
    """
    return (n * _HBAR * params.qubit_splitting_rad_per_fs
            + n * n * _HBAR * params.coupling.omega_rec_rad_per_fs)


def transition_detuning(n: float, params: ScenarioParams) -> float:
    """delta_n = E_{n+1} - E_n - hbar*omega_L, in eV."""
    return (sideband_energy(n + 1.0, params) - sideband_energy(n, params)
            - _HBAR * params.drive.omega_L_rad_per_fs)


def classical_grating_period(lambda_nm: float, beta: float) -> float:
    """Continuum phase matching omega_L = v0*q, i.e. Lambda = beta*lambda."""
    if lambda_nm <= 0 or beta <= 0:
        raise DomainError("wavelength and beta must be positive")
    return beta * lambda_nm


def quantum_grating_period(lambda_nm: float, theta_rad: float, beta: float,
                           m: int, photon_momentum_per_nm: float | None = None) -> float:
    """Grating period for harmonic m of the discrete phase-matching condition.

    Solves k_ph*cos(theta) + m*(2*pi/Lambda) = omega_L/v0 for Lambda.  Passing
    photon_momentum_per_nm=0 removes the photon-momentum correction and
    recovers the classical period for m=1.
    """
    if lambda_nm <= 0 or not 0.0 < beta < 1.0:
        raise DomainError("need lambda > 0 and beta in (0, 1)")
    if int(m) != m:
        raise DomainError("harmonic m must be an integer")
    m = int(m)
    if m == 0:
        raise GratingError("m = 0 yields no coupling: a uniform surface "
                           "supplies no momentum")
    k_ph = (2.0 * math.pi / lambda_nm if photon_momentum_per_nm is None
            else photon_momentum_per_nm)
    # omega/v0 = 2*pi/(beta*lambda) for a free-space drive
    denom = 2.0 * math.pi / (beta * lambda_nm) - k_ph * math.cos(theta_rad)
    if denom <= 0:
        raise GratingError("phase-matching denominator omega/v0 - k_ph*cos(theta) "
                           "must be positive")
    return 2.0 * math.pi * m / denom
