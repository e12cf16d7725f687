import dataclasses
import itertools
import math

import numpy as np
import pytest

from feqo_lab import (BasisError, CODATA2018, ModelKind, basis_ket,
                      build_dispersive_xy, build_jc, build_jc_interaction,
                      build_model, build_pinem, build_tc, coherent_state,
                      default_window, excitation_observable, make_basis,
                      qubit_window, tensor_product)

HBAR = CODATA2018.hbar_eV_fs


def commutator_norm(a, b):
    am, bm = a.to_csr(), b.to_csr()
    return abs(am @ bm - bm @ am).max()


def _with(others, el, label):
    """Electron labels: `others` with `label` inserted at position el."""
    labels = list(others)
    labels.insert(el, label)
    return labels


class TestPinem:
    # (electrons, exact_kn): every ladder element, addressed by encode
    LADDER_CASES = [(1, False), (2, False), (2, True)]

    def test_ladder_elements(self, fig2a_params):
        g = fig2a_params.coupling.g_rad_per_fs
        for n_el, exact_kn in self.LADDER_CASES:
            params = dataclasses.replace(fig2a_params, exact_kn=exact_kn)
            q_over_k0 = params.drive.q_per_m / params.electron.k0_per_m
            basis = make_basis(n_el, default_window(4), 3)
            h = build_pinem(params, basis).to_dense()
            window = basis.sideband_indices
            expected_count = 0
            for el in range(n_el):
                for others in itertools.product(window, repeat=n_el - 1):
                    for i in range(1, len(window)):
                        scale = (1.0 + window[i - 1] * q_over_k0
                                 if exact_kn else 1.0)
                        for m in range(basis.fock_cutoff):
                            up = _with(others, el, window[i])
                            down = _with(others, el, window[i - 1])
                            lhs = h[basis.encode(up, m),
                                    basis.encode(down, m + 1)]
                            assert lhs == pytest.approx(
                                HBAR * g * math.sqrt(m + 1) * scale, rel=1e-14)
                            expected_count += 1
            # no coupling besides the ladder
            assert np.count_nonzero(np.triu(h, k=1)) == expected_count

    def test_free_theory_is_diagonal(self, fig2a_params):
        zeroed = dataclasses.replace(fig2a_params.coupling, g_rad_per_fs=0.0,
                                     g_signed_rad_per_fs=0.0)
        params = dataclasses.replace(fig2a_params, coupling=zeroed)
        basis = make_basis(1, default_window(4), 2)
        h = build_pinem(params, basis).to_dense()
        assert np.allclose(h, np.diag(np.diag(h)))

    def test_reduction_to_jc(self, fig2a_params):
        basis = make_basis(1, qubit_window(), 4)
        h_pinem = build_pinem(fig2a_params, basis).to_dense()
        h_jc = build_jc(fig2a_params, basis).to_dense()
        diff = h_pinem - h_jc
        shift = diff[0, 0]
        assert np.max(np.abs(diff - shift * np.eye(basis.dimension))) < 1e-12

    # (electrons, moving electron); spectators sit on window[0]
    KN_CASES = [(1, 0), (2, 0), (2, 1)]

    def test_exact_kn_scaling(self, fig2a_params):
        params = dataclasses.replace(fig2a_params, exact_kn=True)
        q_over_k0 = (fig2a_params.drive.q_per_m
                     / fig2a_params.electron.k0_per_m)
        for n_el, el in self.KN_CASES:
            basis = make_basis(n_el, default_window(4), 2)
            h = build_pinem(params, basis).to_dense()
            h0 = build_pinem(fig2a_params, basis).to_dense()
            window = basis.sideband_indices
            others = (window[0],) * (n_el - 1)
            m = 1   # transition window[1] -> window[2] absorbing a photon
            scale = 1.0 + window[1] * q_over_k0
            a = basis.encode(_with(others, el, window[2]), m)
            b = basis.encode(_with(others, el, window[1]), m + 1)
            assert h0[a, b] != 0.0
            assert h[a, b] == pytest.approx(h0[a, b] * scale, rel=1e-12)

    def test_dispersion_scale_enters_diagonal(self, fig2a_params):
        scaled = dataclasses.replace(fig2a_params, dispersion_scale=100.0)
        w_rec = fig2a_params.coupling.omega_rec_rad_per_fs
        for n_el in (1, 2):
            basis = make_basis(n_el, default_window(4), 1)
            d0 = build_pinem(fig2a_params, basis).diagonal()
            d1 = build_pinem(scaled, basis).diagonal()
            # every electron adds its own n^2 recoil term
            n_sq = np.array([sum(n * n for n in basis.decode(i)[0])
                             for i in range(basis.dimension)])
            assert np.allclose(d1 - d0, 99.0 * HBAR * w_rec * n_sq,
                               rtol=1e-12)

    def test_sparsity_bound(self, fig2a_params):
        for n_el in (1, 2):
            basis = make_basis(n_el, default_window(4), 3)
            h = build_pinem(fig2a_params, basis)
            assert h.nnz <= basis.dimension * (1 + 2 * n_el)


class TestJC:
    def test_matrix_element_by_hand(self, fig2a_params):
        basis = make_basis(1, qubit_window(), 5)
        h = build_jc(fig2a_params, basis).to_dense()
        g = fig2a_params.coupling.g_rad_per_fs
        for m in range(5):
            el = h[basis.encode((0.5,), m), basis.encode((-0.5,), m + 1)]
            assert el == pytest.approx(HBAR * g * math.sqrt(m + 1), rel=1e-14)

    def test_excitation_conserved(self, fig2a_params):
        basis = make_basis(1, qubit_window(), 6)
        h = build_jc(fig2a_params, basis)
        n_tot = excitation_observable(basis)
        assert commutator_norm(h, n_tot) < 1e-12

    def test_resonant_pair_degenerate(self, fig2a_params):
        basis = make_basis(1, qubit_window(), 4)
        d = build_jc(fig2a_params, basis).diagonal()
        for m in range(4):
            assert d[basis.encode((0.5,), m)] == pytest.approx(
                d[basis.encode((-0.5,), m + 1)], abs=1e-12)

    def test_wrong_window_rejected(self, fig2a_params):
        with pytest.raises(BasisError):
            build_jc(fig2a_params, make_basis(1, default_window(4), 2))


class TestJCInteraction:
    def test_diagonal_zero(self):
        basis = make_basis(1, qubit_window(), 5)
        h = build_jc_interaction(0.01, basis)
        assert np.allclose(h.diagonal(), 0.0)

    def test_vacuum_block(self):
        basis = make_basis(1, qubit_window(), 3)
        h = build_jc_interaction(0.01, basis).to_dense()
        assert h[basis.encode((0.5,), 0),
                 basis.encode((-0.5,), 1)] == pytest.approx(HBAR * 0.01)

    def test_equals_jc_minus_diagonal_at_resonance(self, fig2a_params):
        basis = make_basis(1, qubit_window(), 4)
        h_jc = build_jc(fig2a_params, basis).to_dense()
        h_int = build_jc_interaction(fig2a_params.coupling.g_rad_per_fs,
                                     basis).to_dense()
        assert np.allclose(h_jc - np.diag(np.diag(h_jc)), h_int, atol=1e-15)


class TestTC:
    def test_single_electron_reduces_to_jc(self, fig2a_params):
        basis = make_basis(1, qubit_window(), 4)
        assert np.allclose(build_tc(fig2a_params, basis).to_dense(),
                           build_jc(fig2a_params, basis).to_dense())

    def test_permutation_symmetry(self, fig2b_params):
        basis = make_basis(2, qubit_window(), 2)
        h = build_tc(fig2b_params, basis).to_dense()
        dim = basis.dimension
        perm = np.zeros((dim, dim))
        for i in range(dim):
            (n1, n2), m = basis.decode(i)
            perm[basis.encode((n2, n1), m), i] = 1.0
        assert np.allclose(perm.T @ h @ perm, h, atol=1e-14)

    def test_bright_state_coupling(self, fig2a_params):
        n_el = 3
        basis = make_basis(n_el, qubit_window(), 2)
        h = build_tc(fig2a_params, basis)
        g = fig2a_params.coupling.g_rad_per_fs
        start = basis_ket(basis, (-0.5,) * n_el, 1)
        reached = h.matvec(start.amplitudes)
        bright = np.zeros(basis.dimension, dtype=complex)
        for k in range(n_el):
            labels = [-0.5] * n_el
            labels[k] = 0.5
            bright[basis.encode(labels, 0)] = 1.0 / math.sqrt(n_el)
        overlap = np.vdot(bright, reached)
        assert overlap == pytest.approx(HBAR * g * math.sqrt(n_el), rel=1e-12)

    # (electrons, active): a strict subset of the register is driven
    SELECTIVE_CASES = [(3, (0, 1)), (4, (1, 3))]

    def test_selective_coupling(self, fig2b_params):
        for n_el, active in self.SELECTIVE_CASES:
            basis = make_basis(n_el, qubit_window(), 1)
            h = build_tc(fig2b_params, basis, active=active).to_dense()
            # idle electrons exchange nothing: their flip amplitude vanishes
            src = basis.encode((-0.5,) * n_el, 1)
            for el in range(n_el):
                dst = basis.encode(_with((-0.5,) * (n_el - 1), el, 0.5), 0)
                assert (h[dst, src] != 0.0) == (el in active)


class TestDispersiveXY:
    def test_hand_matrix(self):
        basis = make_basis(2, qubit_window(), 0)
        J = 2.0e-4
        h = build_dispersive_xy(J, basis).to_dense()
        eg = basis.encode((0.5, -0.5), 0)
        ge = basis.encode((-0.5, 0.5), 0)
        ee = basis.encode((0.5, 0.5), 0)
        gg = basis.encode((-0.5, -0.5), 0)
        assert h[eg, ge] == pytest.approx(HBAR * J, rel=1e-14)
        assert h[ee, ee] == 0.0 and h[gg, gg] == 0.0
        assert np.count_nonzero(h) == 2

    def test_conserves_total_sz(self):
        basis = make_basis(2, qubit_window(), 0)
        h = build_dispersive_xy(3e-4, basis)
        n_tot = excitation_observable(basis)
        assert commutator_norm(h, n_tot) < 1e-12

    def test_zero_rate(self):
        basis = make_basis(2, qubit_window(), 0)
        assert np.allclose(build_dispersive_xy(0.0, basis).to_dense(), 0.0)

    # (electrons, pair): adjacent, non-adjacent and reversed pairs
    PAIR_CASES = [(3, (1, 2)), (4, (0, 3)), (4, (3, 1))]

    def test_pair_selection(self):
        for n_el, (i, j) in self.PAIR_CASES:
            basis = make_basis(n_el, qubit_window(), 0)
            h = build_dispersive_xy(1e-4, basis, pair=(i, j)).to_dense()
            labels_a = [-0.5] * n_el
            labels_b = [-0.5] * n_el
            labels_a[i], labels_b[j] = 0.5, 0.5
            a = basis.encode(labels_a, 0)
            b = basis.encode(labels_b, 0)
            assert h[a, b] == pytest.approx(HBAR * 1e-4, rel=1e-14)
            # one swap per spectator configuration, mirrored: nothing else
            assert np.count_nonzero(h) == 2 * 2 ** (n_el - 2)


class TestExcitationObservable:
    def test_commutes_with_builders(self, fig2a_params, fig2b_params):
        rng = np.random.default_rng(7)
        for n_el, window, cutoff in [(1, default_window(6), 4),
                                     (2, qubit_window(), 3)]:
            basis = make_basis(n_el, window, cutoff)
            assert basis.dimension <= 200
            n_tot = excitation_observable(basis)
            hams = [build_pinem(fig2a_params, basis)]
            if window == qubit_window():
                hams += [build_tc(fig2b_params, basis),
                         build_jc_interaction(0.01, basis)]
            for h in hams:
                assert commutator_norm(h, n_tot) < 1e-12

    def test_coherent_expectation(self, fig2a_params):
        n_el = 2
        basis = make_basis(n_el, qubit_window(), 40)
        n_tot = excitation_observable(basis)
        photon = coherent_state(3.0, 40)
        g_ket = np.array([1.0, 0.0])       # window order: g first
        state = tensor_product(basis, [g_ket, g_ket, photon])
        assert n_tot.expectation(state) == pytest.approx(
            -n_el / 2 + 9.0, abs=1e-6)

    def test_vacuum_all_ground(self):
        basis = make_basis(3, qubit_window(), 1)
        n_tot = excitation_observable(basis)
        state = basis_ket(basis, (-0.5,) * 3, 0)
        assert n_tot.expectation(state) == pytest.approx(-1.5, abs=1e-14)


class TestHermiticity:
    def test_exact_by_construction(self, fig2a_params, fig2b_params):
        cases = [
            build_pinem(fig2a_params, make_basis(1, default_window(6), 5)),
            build_jc(fig2a_params, make_basis(1, qubit_window(), 5)),
            build_jc_interaction(0.2, make_basis(1, qubit_window(), 5)),
            build_tc(fig2b_params, make_basis(2, qubit_window(), 3)),
            build_dispersive_xy(1e-4, make_basis(2, qubit_window(), 0)),
            excitation_observable(make_basis(2, qubit_window(), 3)),
        ]
        for h in cases:
            dense = h.to_dense()
            assert np.max(np.abs(dense - dense.conj().T)) == 0.0


class TestBuildModel:
    def test_dispatch(self, fig2a_params, fig2b_params):
        b1 = make_basis(1, default_window(6), 3)
        b2 = make_basis(1, qubit_window(), 3)
        b3 = make_basis(2, qubit_window(), 2)
        assert build_model(ModelKind.PINEM_FULL, fig2a_params, b1).dimension \
            == b1.dimension
        assert build_model(ModelKind.JC_LAB, fig2a_params, b2).dimension \
            == b2.dimension
        assert build_model(ModelKind.TC_LAB, fig2b_params, b3).dimension \
            == b3.dimension
        h_xy = build_model(ModelKind.DISPERSIVE_XY, fig2b_params,
                           make_basis(2, qubit_window(), 0))
        # signed exchange rate: negative for a drive above the qubit
        eg = 1 * 2 + 0   # (e,g) photon-free flat index
        ge = 0 * 2 + 1
        assert h_xy.to_dense()[2, 1].real < 0 or h_xy.to_dense()[1, 2].real < 0

    def test_dispersive_requires_detuning(self, fig2a_params):
        with pytest.raises(Exception):
            build_model(ModelKind.DISPERSIVE_XY, fig2a_params,
                        make_basis(2, qubit_window(), 0))
