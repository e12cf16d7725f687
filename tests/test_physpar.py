import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from feqo_lab import (CODATA2018, DomainError, GratingError,
                      classical_grating_period, coupling_constant,
                      derive_electron, ev_to_rad_per_fs, make_scenario,
                      quantization_volume, quantum_grating_period,
                      rad_per_fs_to_ev, sideband_energy,
                      single_photon_amplitude, transition_detuning,
                      wavelength_nm)


def test_hbar_forms_consistent():
    c = CODATA2018
    assert abs(c.hbar_eV_fs - c.hbar_J_s / c.e * 1e15) < 1e-12 * c.hbar_eV_fs


class TestDeriveElectron:
    def test_beta_002(self):
        el = derive_electron(0.02)
        # direct evaluation of 1/sqrt(1-b^2) and b*c
        assert el.gamma == pytest.approx(1.0 / math.sqrt(1 - 0.02 ** 2), rel=1e-14)
        assert el.gamma == pytest.approx(1.000200, abs=5e-7)
        assert el.v0_m_per_s == pytest.approx(5.996e6, rel=1e-3)

    def test_k0(self):
        el = derive_electron(0.02)
        # hand evaluation of gamma m_e v0 / hbar
        assert el.k0_per_m == pytest.approx(5.18e10, rel=1e-3)

    def test_rest_limit(self):
        el = derive_electron(1e-9)
        assert el.gamma == pytest.approx(1.0, abs=1e-12)
        assert el.v0_m_per_s == pytest.approx(0.0, abs=1.0)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, beta):
        with pytest.raises(DomainError):
            derive_electron(beta)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_unit_round_trip(energy_eV):
    back = rad_per_fs_to_ev(ev_to_rad_per_fs(energy_eV))
    assert abs(back - energy_eV) <= 1e-12 * energy_eV


class TestSinglePhotonAmplitude:
    def test_diffraction_limit_value(self):
        w = ev_to_rad_per_fs(6.20)
        ez = single_photon_amplitude(w, (100e-9) ** 3)
        assert ez == pytest.approx(7.48e6, rel=5e-3)

    def test_larger_box(self):
        w = ev_to_rad_per_fs(6.20)
        ez = single_photon_amplitude(w, (200e-9) ** 3)
        assert ez == pytest.approx(2.645e6, rel=5e-3)

    def test_inverse_square_root_scaling(self):
        w = ev_to_rad_per_fs(6.20)
        v = 1e-21
        assert single_photon_amplitude(w, 4 * v) == pytest.approx(
            single_photon_amplitude(w, v) / 2.0, rel=1e-14)

    def test_inverse_query(self):
        w = ev_to_rad_per_fs(6.20)
        v = (137e-9) ** 3
        ez = single_photon_amplitude(w, v)
        assert quantization_volume(w, ez) == pytest.approx(v, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            single_photon_amplitude(-1.0, 1e-21)
        with pytest.raises(DomainError):
            single_photon_amplitude(1.0, 0.0)


class TestCoupling:
    def test_weak_coupling_ratio(self, fig2a_params):
        assert fig2a_params.coupling.g_over_omega == pytest.approx(3.85e-4,
                                                                   rel=2e-2)

    def test_strong_field_value(self, strong_params):
        assert strong_params.coupling.g_rad_per_fs == pytest.approx(0.24,
                                                                    rel=1e-2)

    def test_linear_in_field(self, fig2a_params):
        p = fig2a_params
        doubled = coupling_constant(
            p.electron, p.drive,
            type(p.mode)(2.0 * p.mode.E_z_tilde_V_per_m, None, "amplitude"))
        assert doubled.g_rad_per_fs == 2.0 * p.coupling.g_rad_per_fs

    def test_sign_retained(self, fig2a_params):
        cp = fig2a_params.coupling
        assert cp.g_signed_rad_per_fs < 0
        assert abs(cp.g_signed_rad_per_fs) == cp.g_rad_per_fs

    def test_resonant_at_phase_matching(self, fig2a_params):
        assert fig2a_params.coupling.delta_rad_per_fs <= 1e-12
        assert fig2a_params.coupling.J_rad_per_fs is None

    def test_dispersive_J(self, fig2b_params):
        cp = fig2b_params.coupling
        assert cp.delta_signed_rad_per_fs < 0       # drive above the qubit
        assert cp.J_rad_per_fs == pytest.approx(
            cp.g_rad_per_fs ** 2 / cp.delta_rad_per_fs, rel=1e-14)
        assert cp.J_signed_rad_per_fs < 0

    def test_bit_for_bit_reproducible(self):
        kw = dict(beta=0.02, photon_energy_eV=6.20, alpha=10.0,
                  box_edge_nm=100.0)
        a = make_scenario(**kw).coupling
        b = make_scenario(**kw).coupling
        assert a.g_rad_per_fs == b.g_rad_per_fs
        assert a.omega_rec_rad_per_fs == b.omega_rec_rad_per_fs
        assert a.delta_signed_rad_per_fs == b.delta_signed_rad_per_fs


class TestSidebandEnergies:
    def test_qubit_splitting_exact(self, fig2a_params):
        p = fig2a_params
        gap = sideband_energy(0.5, p) - sideband_energy(-0.5, p)
        hbar = CODATA2018.hbar_eV_fs
        assert gap == pytest.approx(hbar * p.qubit_splitting_rad_per_fs,
                                    rel=1e-14)

    def test_curvature_symmetric(self, fig2a_params):
        p = fig2a_params
        up = sideband_energy(0.5, p)
        dn = sideband_energy(-0.5, p)
        # n^2 term is even: the shared curvature is (up + dn)/2
        hbar = CODATA2018.hbar_eV_fs
        assert (up + dn) / 2 == pytest.approx(
            0.25 * hbar * p.coupling.omega_rec_rad_per_fs, rel=1e-12)

    def test_leak_detuning(self, fig2a_params):
        p = fig2a_params
        hbar = CODATA2018.hbar_eV_fs
        # substitute E_n into delta_n: resonant case leaves 2 hbar omega_rec
        assert transition_detuning(0.5, p) == pytest.approx(
            2.0 * hbar * p.coupling.omega_rec_rad_per_fs, rel=1e-12)

    def test_odd_symmetry(self, fig2a_params):
        p = fig2a_params
        assert transition_detuning(0.5, p) == pytest.approx(
            -transition_detuning(-1.5, p), rel=1e-12)


class TestGratingPeriods:
    def test_classical_period_reference_value(self):
        assert classical_grating_period(200.0, 0.02) == pytest.approx(4.00,
                                                                      rel=5e-3)

    def test_classical_beta_005(self):
        assert classical_grating_period(200.0, 0.05) == pytest.approx(10.0,
                                                                      rel=1e-12)

    def test_luminal_limit(self):
        assert classical_grating_period(200.0, 0.999999) == pytest.approx(
            200.0, rel=1e-5)

    def test_quantum_m1(self):
        assert quantum_grating_period(200.0, 0.0, 0.02, 1) == pytest.approx(
            4.08, rel=5e-3)

    def test_quantum_m2(self):
        assert quantum_grating_period(200.0, 0.0, 0.02, 2) == pytest.approx(
            8.163, rel=5e-3)

    def test_m0_forbidden(self):
        with pytest.raises(GratingError, match="no coupling"):
            quantum_grating_period(200.0, 0.0, 0.02, 0)

    @pytest.mark.parametrize("lam,beta", [(200.0, 0.02), (157.0, 0.05),
                                          (800.0, 0.3), (1064.0, 0.9)])
    def test_classical_limit_without_photon_momentum(self, lam, beta):
        quantum = quantum_grating_period(lam, 0.0, beta, 1,
                                         photon_momentum_per_nm=0.0)
        assert quantum == pytest.approx(classical_grating_period(lam, beta),
                                        rel=1e-12)


class TestScenarioAssembly:
    def test_exactly_one_mode_input(self):
        with pytest.raises(DomainError):
            make_scenario(beta=0.02, photon_energy_eV=6.2,
                          box_edge_nm=100.0, E_z_tilde_V_per_m=1e7)
        with pytest.raises(DomainError):
            make_scenario(beta=0.02, photon_energy_eV=6.2)

    def test_volume_back_computed(self, fig2b_params):
        md = fig2b_params.mode
        assert md.authoritative == "amplitude"
        assert md.box_volume_m3 is not None and md.box_volume_m3 > 0

    def test_wavelength(self, fig2a_params):
        assert fig2a_params.drive.wavelength_nm == pytest.approx(200.0,
                                                                 rel=1e-3)
        with pytest.raises(DomainError):
            wavelength_nm(0.0)

    def test_grating_matched_to_reference(self, fig2b_params):
        # grating keeps the 6.20 eV matching; the 6.24 eV drive is detuned
        w_ref = ev_to_rad_per_fs(6.20)
        v0q = fig2b_params.qubit_splitting_rad_per_fs
        assert v0q == pytest.approx(w_ref, rel=1e-12)
