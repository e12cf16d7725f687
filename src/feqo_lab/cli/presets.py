"""Named scenario presets for the captioned experiments.

Two values deserve a note:

* ``model.dispersion_scale = 100`` on the figure-dynamics presets.  With the
  physical sideband dispersion (scale 1) the weak-field gate reaches an
  electron fidelity of ~0.963 and the strong-field gate breaks down entirely
  (~0.09), while the published curves need the recoil term to exceed the
  coherent Rabi coupling by a wide margin.  Scaling the quadratic term of the
  dispersion by 100 (the slip of one length decade in the grating wavenumber)
  reproduces every published fidelity, the clean Bragg collapse/revival, and
  the Raman-Nath breakdown simultaneously.  Scale 1 remains the library
  default; see README "Dispersion discrepancy".

* ``drive.photon_energy_eV = 6.2434`` on the W-state preset.  The dispersive
  iSWAP preset pins 6.24 eV, which puts the exchange rate ~8% above the value
  implied by the reported gate times (4.75 ps, 3.90 ps, 7.81 ps) and the
  quoted |g/Delta| = 0.055; 6.2434 eV reproduces all four to better than
  0.3%.
"""

from __future__ import annotations

# photon energy consistent with the reported dispersive gate durations
CALIBRATED_DISPERSIVE_PHOTON_EV = 6.2434

# compatibility multiplier on the quadratic sideband dispersion (see module
# docstring); the physical value is 1.0
FIGURE_DISPERSION_SCALE = 100.0

_RESONANT_COMMON = {
    "electron.beta": 0.02,
    "drive.photon_energy_eV": 6.20,
    "basis.num_electrons": 1,
    "basis.sidebands": 6,
    "basis.fock_cutoff": "auto",
    "propagator.method": "eigen",
    "model.dispersion_scale": FIGURE_DISPERSION_SCALE,
}

_DISPERSIVE_COMMON = {
    "electron.beta": 0.02,
    "drive.phase_match_photon_energy_eV": 6.20,
    "mode.E_z_tilde_V_per_m": 7.58e6,
    "drive.alpha_re": 0.0,
    "basis.sidebands": 2,
    "basis.fock_cutoff": "4",
    "propagator.method": "eigen",
}

PRESETS: dict[str, dict] = {
    # resonant pi pulse, coherent |alpha| = 10, diffraction-limited mode
    "fig2a": {
        **_RESONANT_COMMON,
        "mode.box_edge_nm": 100.0,
        "drive.alpha_re": 10.0,
        "gate.type": "rx",
        "gate.theta_rad": 3.141592653589793,
        "gate.initial": "g",
    },
    # same gate under the deliberately extreme vacuum field
    "fig2a_strong": {
        **_RESONANT_COMMON,
        "mode.E_z_tilde_V_per_m": 5.0e8,
        "drive.alpha_re": 10.0,
        "gate.type": "rx",
        "gate.theta_rad": 3.141592653589793,
        "gate.initial": "g",
    },
    # dispersive iSWAP between two electron qubits, vacuum photon
    "fig2b": {
        **_DISPERSIVE_COMMON,
        "drive.photon_energy_eV": 6.24,
        "basis.num_electrons": 2,
        "initial.theta_1_rad": 1.0471975511965976,   # pi/3
        "initial.theta_2_rad": 2.8797932657906435,   # 11*pi/12
    },
    # three-qubit W state via two partial iSWAPs
    "fig3": {
        **_DISPERSIVE_COMMON,
        "drive.photon_energy_eV": CALIBRATED_DISPERSIVE_PHOTON_EV,
        "basis.num_electrons": 3,
        "wstate.convention": "arccos",
    },
    # collapse and revival in the Bragg regime, alpha = 3
    "s1_bragg": {
        **_RESONANT_COMMON,
        "mode.E_z_tilde_V_per_m": 5.0e8,
        "drive.alpha_re": 3.0,
        "gate.initial": "e",
        "run.total_time_fs": 1290.0,
    },
    # Raman-Nath breakdown: faster electron, amplified field
    "s2_ramannath": {
        **_RESONANT_COMMON,
        "electron.beta": 0.05,
        "mode.E_z_tilde_V_per_m": 1.0e9,
        "drive.alpha_re": 3.0,
        "gate.initial": "e",
        "run.total_time_fs": 129.0,
    },
    # grating-period pipeline only, no dynamics
    "smith_purcell": {
        "electron.beta": 0.02,
            "drive.photon_energy_eV": 6.20,
            "mode.box_edge_nm": 100.0,
    },
    # parameter derivation echo, defaults to the fig2a scenario
    "params_only": {
        "electron.beta": 0.02,
            "drive.photon_energy_eV": 6.20,
            "mode.box_edge_nm": 100.0,
        "drive.alpha_re": 10.0,
    },
}

# analog TC W state is reached through the `wstate` subcommand; this preset
# backs it with the fig2a resonant mode parameters
WSTATE_ANALOG_BASE = {
    "electron.beta": 0.02,
    "drive.photon_energy_eV": 6.20,
    "mode.box_edge_nm": 100.0,
    "basis.sidebands": 2,
    "basis.fock_cutoff": "3",
    "propagator.method": "eigen",
}
