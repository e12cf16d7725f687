import numpy as np
import pytest

from feqo_lab import make_scenario


@pytest.fixture(scope="session")
def fig2a_params():
    """Resonant weak-field scenario: beta=0.02, 6.20 eV, 100 nm box."""
    return make_scenario(beta=0.02, photon_energy_eV=6.20,
                         alpha=10.0, box_edge_nm=100.0)


@pytest.fixture(scope="session")
def strong_params():
    """Same electron/drive with the deliberately extreme vacuum field."""
    return make_scenario(beta=0.02, photon_energy_eV=6.20,
                         alpha=10.0, E_z_tilde_V_per_m=5.0e8)


@pytest.fixture(scope="session")
def fig2b_params():
    """Detuned two-qubit scenario: 6.24 eV drive on the 6.20 eV grating."""
    return make_scenario(beta=0.02, photon_energy_eV=6.24,
                         phase_match_photon_energy_eV=6.20,
                         E_z_tilde_V_per_m=7.58e6)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
