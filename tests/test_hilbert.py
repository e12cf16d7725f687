import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from feqo_lab import (BasisError, DensityOperator, DomainError,
                      TruncationError, basis_ket, coherent_state,
                      computational_block, default_fock_cutoff, default_window,
                      fock_ket, make_basis, partial_trace, photon_number_mean,
                      pure_target_fidelity, purity, qubit_factor, qubit_window,
                      schmidt_entropy, sideband_populations, tensor_product,
                      uhlmann_fidelity, von_neumann_entropy)
from feqo_lab.analytics import _poisson_weights
from feqo_lab.hilbert import (StateVector, _poisson_logpmf,
                             computational_state_vector, electron_populations,
                             poisson_cutoff, sideband_leakage)

from conftest import random_state


class TestBasisSpec:
    @pytest.mark.parametrize("n_el,window,cutoff,dim", [
        (1, (-0.5, 0.5), 1, 4),
        (1, default_window(6), 159, 960),
        (2, default_window(6), 3, 144),
    ])
    def test_dimensions(self, n_el, window, cutoff, dim):
        assert make_basis(n_el, window, cutoff).dimension == dim

    def test_codec_bijection_exhaustive(self):
        basis = make_basis(2, default_window(4), 3)
        for flat in range(basis.dimension):
            labels, m = basis.decode(flat)
            assert basis.encode(labels, m) == flat

    def test_photon_index_fastest(self):
        basis = make_basis(1, qubit_window(), 3)
        assert basis.encode((-0.5,), 1) == 1
        assert basis.encode((0.5,), 0) == basis.photon_dim

    @pytest.mark.parametrize("window", [
        (-1.5, -0.5),                  # missing +1/2
        (-0.5, 0.5, 1.5, 2.5, 3.5),    # fine actually? contains both -> valid
    ])
    def test_window_must_contain_computational_pair(self, window):
        if 0.5 in window and -0.5 in window:
            make_basis(1, window, 2)
        else:
            with pytest.raises(BasisError):
                make_basis(1, window, 2)

    def test_window_consecutive(self):
        with pytest.raises(BasisError):
            make_basis(1, (-2.5, -0.5, 0.5), 2)
        with pytest.raises(BasisError):
            make_basis(1, (-1.0, 0.0, 1.0), 2)

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_codec_bijection_random(self, n_el, half_window, cutoff):
        basis = make_basis(n_el, default_window(2 * half_window), cutoff)
        idx = np.linspace(0, basis.dimension - 1, num=min(basis.dimension, 64),
                          dtype=int)
        for flat in idx:
            labels, m = basis.decode(int(flat))
            assert basis.encode(labels, m) == flat

    @pytest.mark.parametrize("n_el,window,cutoff", [
        (1, default_window(6), 4), (2, qubit_window(), 3),
        (3, default_window(4), 2)])
    def test_index_grids_match_codec(self, n_el, window, cutoff):
        basis = make_basis(n_el, window, cutoff)
        flat, labels, photon = basis.index_grids()
        assert flat.shape == photon.shape == basis.shape
        assert labels.shape == (n_el,) + basis.shape
        for full in range(basis.dimension):
            pos = np.unravel_index(full, basis.shape)
            assert flat[pos] == full
            assert (tuple(labels[(slice(None),) + pos]), photon[pos]) \
                == basis.decode(full)


class TestCoherentState:
    def test_vacuum(self):
        amps = coherent_state(0.0, 5)
        assert amps[0] == pytest.approx(1.0)
        assert np.allclose(amps[1:], 0.0)

    def test_mean_photon_number(self):
        # Poisson-mean oracle; the N_max = 159 truncation carries a ~2e-8
        # tail, so the default 1e-8 budget must be relaxed explicitly
        amps = coherent_state(10.0, 159, tail_tol=1e-7)
        mean = float(np.dot(np.arange(160), np.abs(amps) ** 2))
        assert mean == pytest.approx(100.0, abs=0.01)

    def test_default_rule_covers_alpha_10(self):
        cutoff = default_fock_cutoff(10.0)
        assert cutoff == 170
        amps = coherent_state(10.0, cutoff)       # default tail_tol passes
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_norm(self):
        for alpha in (0.3, 2.0, 3.0 + 1.0j):
            amps = coherent_state(alpha, default_fock_cutoff(alpha))
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_truncation_error_hint(self):
        with pytest.raises(TruncationError) as err:
            coherent_state(10.0, 120)
        need = err.value.required_cutoff
        assert need is not None
        assert stats.poisson.sf(need, 100.0) < 1e-8
        coherent_state(10.0, need)

    @pytest.mark.parametrize("nbar", [0.0, 1e-3, 0.5, 1.0, 2.5, 9.0, 25.0,
                                      100.0, 121.0, 400.0, 3700.0])
    def test_cutoff_is_the_smallest(self, nbar):
        for tail_tol in (1.0, 0.5, 1e-3, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            m = poisson_cutoff(nbar, tail_tol)
            assert stats.poisson.sf(m, nbar) < tail_tol or m == 0 == nbar
            assert m == 0 or stats.poisson.sf(m - 1, nbar) >= tail_tol

    @pytest.mark.parametrize("tail_tol", [0.0, -1e-8, 1.5, np.nan])
    def test_cutoff_refuses_tolerance_outside_unit_interval(self, tail_tol):
        with pytest.raises(DomainError, match="tail_tol"):
            poisson_cutoff(9.0, tail_tol)

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 9.0, 100.0, 121.0, 3700.0])
    def test_poisson_law_matches_scipy_stats(self, nbar):
        m = np.arange(400)
        assert np.array_equal(special.pdtrc(m, nbar),
                              stats.poisson.sf(m, nbar))
        assert np.array_equal(_poisson_logpmf(m, nbar),
                              stats.poisson.logpmf(m, nbar))
        alpha = math.sqrt(nbar)
        ms, weights = _poisson_weights(alpha, 1e-12)
        assert np.array_equal(weights, stats.poisson.pmf(ms, abs(alpha) ** 2))

    def test_large_alpha_no_underflow(self):
        # exp(-|alpha|^2/2) underflows to 0 at |alpha| = 40
        amps = coherent_state(40.0, 2000)
        assert np.all(np.isfinite(amps))
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
        mean = float(np.dot(np.arange(amps.size), np.abs(amps) ** 2))
        assert mean == pytest.approx(1600.0, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0 + 1.0j, -7.0j, 12.0])
    def test_matches_linear_recursion(self, alpha):
        cutoff = default_fock_cutoff(alpha)
        ref = np.zeros(cutoff + 1, dtype=complex)
        ref[0] = math.exp(-0.5 * abs(alpha) ** 2)
        for m in range(cutoff):
            ref[m + 1] = ref[m] * alpha / math.sqrt(m + 1)
        ref /= np.linalg.norm(ref)
        assert np.max(np.abs(coherent_state(alpha, cutoff) - ref)) < 1e-12

    def test_amplitude_recursion(self):
        alpha = 2.0 - 0.7j
        amps = coherent_state(alpha, default_fock_cutoff(alpha))
        for m in range(len(amps) - 1):
            expected = amps[m] * alpha / math.sqrt(m + 1)
            assert abs(amps[m + 1] - expected) <= 1e-12 * abs(expected)


class TestTensorProduct:
    def test_basis_vector_placement(self):
        basis = make_basis(1, qubit_window(), 2)
        e = np.array([0.0, 1.0])     # window order (g, e)
        vac = fock_ket(0, 2)
        state = tensor_product(basis, [e, vac])
        expected = np.zeros(basis.dimension)
        expected[basis.encode((0.5,), 0)] = 1.0
        assert np.allclose(state.amplitudes, expected)

    def test_bloch_angle_amplitudes(self):
        basis = make_basis(1, qubit_window(), 0)
        state = tensor_product(basis, [qubit_factor(math.pi / 3),
                                       fock_ket(0, 0)])
        assert abs(state.amplitudes[basis.encode((0.5,), 0)]) == pytest.approx(
            math.cos(math.pi / 6), rel=1e-12)
        assert abs(state.amplitudes[basis.encode((-0.5,), 0)]) == pytest.approx(
            math.sin(math.pi / 6), rel=1e-12)

    def test_norm_multiplicative(self, rng):
        basis = make_basis(2, qubit_window(), 2)
        f1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        f2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        ph = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = tensor_product(basis, [f1, f2, ph])
        assert state.norm == pytest.approx(
            np.linalg.norm(f1) * np.linalg.norm(f2) * np.linalg.norm(ph),
            rel=1e-12)

    def test_dimension_mismatch(self):
        basis = make_basis(1, qubit_window(), 2)
        with pytest.raises(BasisError):
            tensor_product(basis, [np.ones(3), fock_ket(0, 2)])
        with pytest.raises(BasisError):
            tensor_product(basis, [np.ones(2)])


class TestPartialTrace:
    def test_product_state_pure(self):
        basis = make_basis(1, qubit_window(), 3)
        state = tensor_product(basis, [qubit_factor(0.7), coherent_state(0.5, 3, 1e-2)])
        rho = partial_trace(state, keep="electrons")
        assert purity(rho) == pytest.approx(1.0, abs=1e-9)

    def test_bell_pair(self):
        basis = make_basis(1, qubit_window(), 1)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.encode((0.5,), 0)] = 1 / math.sqrt(2)
        amps[basis.encode((-0.5,), 1)] = 1 / math.sqrt(2)
        rho = partial_trace(StateVector(basis, amps), keep="electrons")
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved_random(self, rng):
        basis = make_basis(2, qubit_window(), 3)
        for _ in range(100):
            state = StateVector(basis, random_state(rng, basis.dimension))
            for keep in ("electrons", "photon", (0,), (1,), (0, 2)):
                rho = partial_trace(state, keep=keep)
                assert abs(np.trace(rho.matrix) - 1.0) < 1e-10
                assert np.linalg.eigvalsh(rho.matrix).min() > -1e-10

    def test_density_matrix_input(self, rng):
        basis = make_basis(1, qubit_window(), 2)
        state = StateVector(basis, random_state(rng, basis.dimension))
        full = DensityOperator(np.outer(state.amplitudes,
                                        state.amplitudes.conj()))
        via_rho = partial_trace(full, keep="electrons", basis=basis)
        via_psi = partial_trace(state, keep="electrons")
        assert np.allclose(via_rho.matrix, via_psi.matrix, atol=1e-12)

    def test_schmidt_symmetry(self, rng):
        basis = make_basis(1, default_window(4), 5)
        for _ in range(50):
            state = StateVector(basis, random_state(rng, basis.dimension))
            s_el = von_neumann_entropy(partial_trace(state, "electrons"))
            s_ph = von_neumann_entropy(partial_trace(state, "photon"))
            assert abs(s_el - s_ph) < 1e-8

    def test_invalid_selector(self):
        basis = make_basis(1, qubit_window(), 1)
        state = basis_ket(basis, (0.5,), 0)
        with pytest.raises(BasisError):
            partial_trace(state, keep="bogus")
        with pytest.raises(BasisError):
            partial_trace(state, keep=(5,))


class TestFidelity:
    def test_self_fidelity(self, rng):
        basis = make_basis(1, qubit_window(), 2)
        state = StateVector(basis, random_state(rng, basis.dimension))
        rho = partial_trace(state, "electrons")
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert uhlmann_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_known_overlap(self, rng):
        psi = random_state(rng, 6)
        perp = random_state(rng, 6)
        perp = perp - psi * np.vdot(psi, perp)
        perp /= np.linalg.norm(perp)
        phi = 0.6 * psi + math.sqrt(1 - 0.36) * perp
        f = uhlmann_fidelity(np.outer(psi, psi.conj()),
                             np.outer(phi, phi.conj()))
        assert f == pytest.approx(0.36, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = random_state(rng, 4)
            b = random_state(rng, 4)
            rho = 0.7 * np.outer(a, a.conj()) + 0.3 * np.outer(b, b.conj())
            sig = np.outer(b, b.conj())
            assert uhlmann_fidelity(rho, sig) == pytest.approx(
                uhlmann_fidelity(sig, rho), abs=1e-9)

    def test_unit_iff_equal(self, rng):
        for _ in range(50):
            a = random_state(rng, 4)
            b = random_state(rng, 4)
            fa = uhlmann_fidelity(np.outer(a, a.conj()), np.outer(a, a.conj()))
            fab = uhlmann_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
            assert fa == pytest.approx(1.0, abs=1e-10)
            assert fab < 1.0 - 1e-6 or abs(abs(np.vdot(a, b)) - 1.0) < 1e-6

    def test_rejects_negative_operator(self):
        bad = np.diag([1.2, -0.2])
        with pytest.raises(DomainError):
            uhlmann_fidelity(bad, np.eye(2) / 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_operand(self, value):
        bad = np.diag([value, 0.0])
        with pytest.raises(DomainError, match="finite"):
            uhlmann_fidelity(bad, np.eye(2) / 2)
        with pytest.raises(DomainError, match="finite"):
            uhlmann_fidelity(np.eye(2) / 2, bad)


class TestPureTargetFidelity:
    """<t|rho|t> against the square-root route of uhlmann_fidelity."""

    def test_matches_uhlmann_on_leaky_blocks(self, rng):
        basis = make_basis(2, default_window(4), 2)
        for _ in range(30):
            state = StateVector(basis, random_state(rng, basis.dimension))
            block = computational_block(partial_trace(state), basis)
            assert np.trace(block).real < 0.9     # subnormalised: leaky
            t = random_state(rng, 4)
            f = pure_target_fidelity(block, t)
            # the round-off eigenvalues (about 1e-16) of the rank-one
            # |t><t| are cut before its root; kept, they biased F by ~1e-8
            assert f == pytest.approx(
                uhlmann_fidelity(block, np.outer(t, t.conj())), abs=1e-14)
            # the same quantity from sqrt(rho) and the exact root |t><t|
            w, v = np.linalg.eigh(block)
            root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            assert f == pytest.approx(np.linalg.norm(root @ t) ** 2,
                                      abs=1e-14)

    def test_guards(self):
        t = np.array([1.0, 0.0], dtype=complex)
        for bad in (np.diag([np.nan, 0.0]), np.diag([np.inf, 0.0])):
            with pytest.raises(DomainError, match="finite"):
                pure_target_fidelity(bad, t)
        with pytest.raises(DomainError, match="finite"):
            pure_target_fidelity(np.eye(2) / 2, np.array([np.nan, 1.0]))
        with pytest.raises(DomainError, match="exceeds 1"):
            pure_target_fidelity(2.0 * np.eye(2), t)
        with pytest.raises(BasisError):
            pure_target_fidelity(np.eye(3) / 3, t)
        assert pure_target_fidelity(np.eye(2) / 2, t) == 0.5


class TestFailClosed:
    def test_nan_state_not_normalized(self):
        basis = make_basis(1, qubit_window(), 1)
        state = StateVector(basis, np.full(basis.dimension, np.nan))
        with pytest.raises(DomainError):
            state.require_normalized()

    def test_nan_density_operator_invalid(self):
        with pytest.raises(DomainError):
            DensityOperator(np.full((2, 2), np.nan)).validate()


class TestEntropy:
    def test_pure(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(
            math.log(2), rel=1e-12)

    def test_hand_value(self):
        # -0.9 ln 0.9 - 0.1 ln 0.1
        assert von_neumann_entropy(np.diag([0.9, 0.1])) == pytest.approx(
            0.3251, abs=5e-5)


_SCHMIDT_BASES = {
    "pinem_1": make_basis(1, default_window(6), 9),
    "pinem_2": make_basis(2, default_window(4), 5),
    "pinem_3": make_basis(3, default_window(4), 3),
    "tc": make_basis(3, qubit_window(), 4),
    "register": make_basis(4, qubit_window(), 0),
}


class TestSchmidtEntropy:
    """Batched Schmidt values against the reduced-density-operator route."""

    @pytest.mark.parametrize("name", sorted(_SCHMIDT_BASES))
    def test_matches_von_neumann_of_partial_trace(self, name, rng):
        basis = _SCHMIDT_BASES[name]
        states = [random_state(rng, basis.dimension) for _ in range(6)]
        # product states: entropy zero up to round-off
        sizes = [basis.sideband_count] * basis.num_electrons + [basis.photon_dim]
        states += [tensor_product(basis, [random_state(rng, d) for d in sizes]
                                  ).amplitudes for _ in range(3)]
        entropy = schmidt_entropy(np.stack(states), basis)
        assert entropy.shape == (len(states),)
        for amps, s in zip(states, entropy):
            reference = von_neumann_entropy(partial_trace(
                StateVector(basis, amps), "electrons"))
            assert s == pytest.approx(reference, abs=1e-12)
        assert np.all(entropy[-3:] < 1e-12)

    def test_single_state_and_non_finite_rows(self, rng):
        basis = _SCHMIDT_BASES["pinem_1"]
        good = random_state(rng, basis.dimension)
        bad = np.full(basis.dimension, np.nan, dtype=complex)
        out = schmidt_entropy(np.stack([good, bad, good]), basis)
        assert np.isnan(out[1])
        assert out[0] == out[2] == schmidt_entropy(good, basis)


class TestPopulations:
    def test_computational_state(self):
        basis = make_basis(1, default_window(6), 1)
        state = basis_ket(basis, (0.5,), 0)
        pops = sideband_populations(state, 0)
        assert pops[0.5] == pytest.approx(1.0)
        assert sum(pops.values()) == pytest.approx(1.0, abs=1e-12)

    def test_equal_superposition(self):
        basis = make_basis(1, qubit_window(), 0)
        state = tensor_product(basis, [qubit_factor(math.pi / 2),
                                       fock_ket(0, 0)])
        pops = sideband_populations(state, 0)
        assert pops[0.5] == pytest.approx(0.5, abs=1e-12)
        assert pops[-0.5] == pytest.approx(0.5, abs=1e-12)

    def test_leakage_reducer_matches_per_electron_sums(self, rng):
        basis = make_basis(2, default_window(4), 2)
        state = StateVector(basis, random_state(rng, basis.dimension))
        by_hand = np.mean([1.0 - sideband_populations(state, el)[-0.5]
                           - sideband_populations(state, el)[0.5]
                           for el in range(2)])
        pops = electron_populations(state)
        assert pops.shape == (2, 4)
        assert float(sideband_leakage(pops, basis)) == pytest.approx(
            by_hand, abs=1e-14)
        # leading axes (samples) pass through
        assert sideband_leakage(np.stack([pops] * 3), basis).shape == (3,)

    def test_photon_mean(self):
        basis = make_basis(1, qubit_window(), 40)
        state = tensor_product(basis, [qubit_factor(math.pi),
                                       coherent_state(3.0, 40)])
        assert photon_number_mean(state) == pytest.approx(9.0, abs=1e-6)


class TestComputationalBlock:
    def test_e_first_ordering(self):
        basis = make_basis(1, default_window(6), 0)
        state = basis_ket(basis, (0.5,), 0)
        rho = partial_trace(state, "electrons")
        block = computational_block(rho, basis)
        assert block[0, 0] == pytest.approx(1.0)    # |e> comes first
        assert block[1, 1] == pytest.approx(0.0)

    def test_leakage_shows_as_missing_trace(self):
        basis = make_basis(1, default_window(6), 0)
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.encode((0.5,), 0)] = math.sqrt(0.9)
        amps[basis.encode((1.5,), 0)] = math.sqrt(0.1)
        rho = partial_trace(StateVector(basis, amps), "electrons")
        block = computational_block(rho, basis)
        assert np.trace(block).real == pytest.approx(0.9, abs=1e-12)

    def test_state_vector_reorder(self):
        basis = make_basis(2, qubit_window(), 0)
        state = basis_ket(basis, (0.5, -0.5), 0)     # |eg>
        vec = computational_state_vector(state)
        assert vec[1] == pytest.approx(1.0)          # index 1 = "eg"
