import dataclasses
import math

import numpy as np
import pytest

from feqo_lab import (DomainError, basis_ket, build_jc_interaction,
                      classify_regime, coherent_state, collapse_revival_times,
                      default_window, leakage_fraction, make_basis,
                      make_scenario, pe_envelope, pe_exact_sum, propagate,
                      PropagatorConfig, qubit_window, tensor_product)
from feqo_lab.analytics import BRAGG, DISPERSIVE, RAMAN_NATH


@pytest.fixture(scope="module")
def s1_params():
    return make_scenario(beta=0.02, photon_energy_eV=6.20,
                         alpha=3.0, E_z_tilde_V_per_m=5.0e8)


@pytest.fixture(scope="module")
def rn_params():
    return make_scenario(beta=0.05, photon_energy_eV=6.20,
                         alpha=3.0, E_z_tilde_V_per_m=1.0e9)


class TestExactSum:
    def test_initial_e_at_zero(self):
        assert pe_exact_sum(3.0, 0.1, 0.0, initial="e") == pytest.approx(1.0)

    def test_vacuum_is_rabi(self):
        g = 0.07
        ts = np.linspace(0.0, 100.0, 50)
        vals = pe_exact_sum(0.0, g, ts, initial="e")
        assert np.allclose(vals, np.cos(g * ts) ** 2, atol=1e-12)

    def test_bounds_random_triples(self, rng):
        alphas = rng.uniform(0.0, 12.0, size=10000)
        gs = rng.uniform(1e-4, 2.0, size=10000)
        ts = rng.uniform(0.0, 5000.0, size=10000)
        for a, g, t in zip(alphas[:200], gs[:200], ts[:200]):
            v = pe_exact_sum(a, g, t)
            assert 0.0 <= v <= 1.0
        # vectorized sweep covers the remaining triples per (a, g) pair
        for a, g in zip(alphas[200:250], gs[200:250]):
            vals = pe_exact_sum(a, g, ts[:200])
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_complementarity(self):
        ts = np.linspace(0.0, 300.0, 101)
        pe = pe_exact_sum(3.0, 0.24, ts, initial="e")
        pg = pe_exact_sum(3.0, 0.24, ts, initial="g")
        assert np.allclose(pe + pg, 1.0, atol=1e-12)

    def test_matches_vacuum_jc_propagation(self):
        g = 0.11
        basis = make_basis(1, qubit_window(), 3)
        h = build_jc_interaction(g, basis)
        psi0 = basis_ket(basis, (0.5,), 0)
        traj = propagate(h, psi0, 60.0,
                         PropagatorConfig(sample_every_fs=0.5))
        e_col = list(basis.sideband_indices).index(0.5)
        series = pe_exact_sum(0.0, g, traj.times_fs, initial="e")
        assert np.max(np.abs(series - traj.populations[:, 0, e_col])) < 1e-10

    def test_matches_coherent_jc_propagation(self, s1_params):
        """Supplement S1 scenario: series vs the quantized model, 1290 fs."""
        g = s1_params.coupling.g_rad_per_fs
        cutoff = 37
        basis = make_basis(1, qubit_window(), cutoff)
        h = build_jc_interaction(g, basis)
        psi0 = tensor_product(basis, [np.array([0.0, 1.0]),
                                      coherent_state(3.0, cutoff)])
        traj = propagate(h, psi0, 1290.0,
                         PropagatorConfig(sample_every_fs=3.0))
        e_col = list(basis.sideband_indices).index(0.5)
        series = pe_exact_sum(3.0, g, traj.times_fs, initial="e")
        rms = np.sqrt(np.mean((series - traj.populations[:, 0, e_col]) ** 2))
        assert rms < 1e-3

    def test_bad_initial(self):
        with pytest.raises(DomainError):
            pe_exact_sum(1.0, 0.1, 0.0, initial="x")


class TestEnvelope:
    def test_initial_g_at_zero(self):
        assert pe_envelope(10.0, 0.01, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_one_over_e_at_gaussian_collapse(self):
        g, alpha = 0.02, 10.0
        t = math.sqrt(2.0) / g
        val = pe_envelope(alpha, g, t)
        cos_term = math.cos(2 * g * t * math.sqrt(101.0))
        assert val == pytest.approx(0.5 * (1 - math.exp(-1.0) * cos_term),
                                    rel=1e-12)

    def test_warns_for_small_nbar(self):
        with pytest.warns(UserWarning, match="nbar"):
            pe_envelope(1.0, 0.1, 1.0)

    def test_tracks_exact_peaks_before_collapse(self, fig2a_params):
        g, alpha = fig2a_params.coupling.g_rad_per_fs, 10.0
        t_coll = math.sqrt(2.0) / g
        ts = np.linspace(0.0, t_coll, 4000)
        exact = pe_exact_sum(alpha, g, ts, initial="g")
        peaks = [k for k in range(1, len(ts) - 1)
                 if exact[k] >= exact[k - 1] and exact[k] >= exact[k + 1]]
        assert peaks
        for k in peaks:
            upper = 0.5 * (1.0 + math.exp(-0.5 * (g * ts[k]) ** 2))
            assert abs(exact[k] - upper) < 0.05


class TestCharacteristicTimes:
    def test_adjacent_dephasing_collapse_time(self, s1_params):
        pred = collapse_revival_times(3.0, s1_params.coupling.g_rad_per_fs)
        assert pred.t_c_adjacent_fs == pytest.approx(77.6, rel=2e-2)

    def test_linear_in_alpha(self):
        g = 0.3
        assert collapse_revival_times(6.0, g).t_c_adjacent_fs == pytest.approx(
            2 * collapse_revival_times(3.0, g).t_c_adjacent_fs, rel=1e-14)

    def test_rev_to_coll_ratio(self):
        alpha, g = 4.0, 0.15
        pred = collapse_revival_times(alpha, g)
        nbar = alpha ** 2
        assert pred.t_rev_fs / pred.t_c_adjacent_fs == pytest.approx(
            math.sqrt(nbar + 1) / alpha, rel=1e-12)

    def test_ordering_invariant(self):
        for alpha in (2.0, 3.0, 8.0):
            pred = collapse_revival_times(alpha, 0.2)
            assert pred.t_rev_fs > pred.t_coll_gaussian_fs

    def test_needs_positive_g(self):
        with pytest.raises(DomainError):
            collapse_revival_times(3.0, 0.0)


class TestRegime:
    def test_weak_field_is_bragg(self, fig2a_params):
        report = classify_regime(fig2a_params, 10.0)
        assert report.regime == BRAGG
        assert report.ratio_coupling_to_recoil == pytest.approx(0.25, abs=0.05)

    def test_raman_nath(self, rn_params):
        assert rn_params.coupling.g_rad_per_fs == pytest.approx(1.21, rel=3e-2)
        assert classify_regime(rn_params, 3.0).regime == RAMAN_NATH

    def test_dispersive(self, fig2b_params):
        report = classify_regime(fig2b_params, 0.0)
        assert report.regime == DISPERSIVE
        assert report.ratio_g_to_delta < 0.1

    def test_ambiguous_detuned_strong(self, fig2b_params):
        stronger = dataclasses.replace(
            fig2b_params.coupling,
            g_rad_per_fs=fig2b_params.coupling.delta_rad_per_fs)
        params = dataclasses.replace(fig2b_params, coupling=stronger)
        report = classify_regime(params, 1.0)
        assert report.regime == RAMAN_NATH
        assert report.warning is not None

    def test_rescaling_invariance(self, fig2a_params, fig2b_params):
        for params, alpha in ((fig2a_params, 10.0), (fig2b_params, 2.0)):
            cp = params.coupling
            factor = 7.3
            scaled_cp = dataclasses.replace(
                cp, g_rad_per_fs=cp.g_rad_per_fs * factor,
                delta_rad_per_fs=cp.delta_rad_per_fs * factor,
                delta_signed_rad_per_fs=cp.delta_signed_rad_per_fs * factor,
                omega_rec_rad_per_fs=cp.omega_rec_rad_per_fs * factor)
            scaled = dataclasses.replace(params, coupling=scaled_cp)
            assert classify_regime(scaled, alpha).regime == \
                classify_regime(params, alpha).regime

    def test_thresholds_echoed(self, fig2a_params):
        report = classify_regime(fig2a_params, 10.0, kappa=0.7,
                                 dispersive_bound=0.2)
        assert report.kappa == 0.7
        assert report.dispersive_bound == 0.2


class TestLeakage:
    def test_computational_states_leak_nothing(self):
        basis = make_basis(1, default_window(6), 2)
        state = basis_ket(basis, (0.5,), 1)
        assert leakage_fraction(state) == 0.0

    def test_partial_leak(self):
        basis = make_basis(1, default_window(6), 0)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.encode((0.5,), 0)] = math.sqrt(0.8)
        amps[basis.encode((2.5,), 0)] = math.sqrt(0.2)
        from feqo_lab.hilbert import StateVector
        assert leakage_fraction(StateVector(basis, amps)) == pytest.approx(
            0.2, abs=1e-12)

    def test_averaged_over_electrons(self):
        basis = make_basis(2, default_window(4), 0)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.encode((1.5, 0.5), 0)] = 1.0   # electron 1 fully leaked
        from feqo_lab.hilbert import StateVector
        assert leakage_fraction(StateVector(basis, amps)) == pytest.approx(
            0.5, abs=1e-12)
