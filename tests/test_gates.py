import math

import numpy as np
import pytest
from scipy.linalg import expm

from feqo_lab import (CODATA2018, DensityOperator, DomainError, GateSchedule,
                      ModelKind, PropagatorConfig, apply_virtual_z, basis_ket,
                      build_dispersive_xy, coherent_state, default_window,
                      execute, make_basis, make_scenario, partial_trace,
                      qubit_factor, qubit_window, schedule_iswap, score_state,
                      schedule_partial_iswap, schedule_rx, schedule_ry,
                      schedule_rz_composite, semiclassical_unitary,
                      tensor_product, von_neumann_entropy,
                      wstate_digital_sequence, wstate_tc_analog)
from feqo_lab.gates import DispersiveRegimeWarning
from feqo_lab.hilbert import (StateVector, computational_block,
                              computational_state_vector, fock_ket,
                              pure_target_fidelity, sideband_populations)
from feqo_lab.propagate import propagate_eigen

from conftest import random_state

HBAR = CODATA2018.hbar_eV_fs
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def rx(theta):
    return expm(-0.5j * theta * SX)


def ry(theta):
    return expm(-0.5j * theta * SY)


def assert_equal_up_to_global_phase(u, target, atol=1e-10):
    # |Tr(u^dag t)| = dim iff the unitaries agree up to a global phase
    assert abs(np.trace(u.conj().T @ target)) == pytest.approx(
        target.shape[0], abs=atol)


class TestRotationSchedules:
    def test_pi_pulse_duration_weak(self, fig2a_params):
        g = fig2a_params.coupling.g_rad_per_fs
        sched = schedule_rx(math.pi, g, 10.0)
        assert sched.wall_time_fs == pytest.approx(43.3, rel=1e-2)

    def test_pi_pulse_duration_strong(self, strong_params):
        g = strong_params.coupling.g_rad_per_fs
        sched = schedule_rx(math.pi, g, 10.0)
        assert sched.wall_time_fs == pytest.approx(0.647, rel=1e-2)

    def test_zero_angle(self, fig2a_params):
        g = fig2a_params.coupling.g_rad_per_fs
        assert schedule_rx(0.0, g, 10.0).wall_time_fs == 0.0

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 2.0, math.pi])
    @pytest.mark.parametrize("galpha", [(1e-3, 5.0), (0.1, 10.0), (0.02, 3.0)])
    def test_duration_scaling_exact(self, theta, galpha):
        g, alpha = galpha
        sched = schedule_rx(theta, g, alpha)
        assert sched.wall_time_fs == theta / (2 * g * alpha)

    def test_ry_same_duration(self, fig2a_params):
        g = fig2a_params.coupling.g_rad_per_fs
        for theta in (0.3, 1.2, math.pi):
            assert schedule_ry(theta, g, 10.0).wall_time_fs == \
                schedule_rx(theta, g, 10.0).wall_time_fs

    def test_negative_angle_flips_phase(self, fig2a_params):
        g = fig2a_params.coupling.g_rad_per_fs
        seg = schedule_rx(-1.0, g, 10.0).segments[0]
        assert seg.drive_phase_rad == pytest.approx(math.pi)
        assert seg.duration_fs == pytest.approx(1.0 / (2 * g * 10.0))


class TestSemiclassicalOracle:
    def test_rx_matches_expm(self):
        for theta in (0.4, 1.0, math.pi):
            u = semiclassical_unitary(schedule_rx(theta, 0.01, 5.0))
            assert np.allclose(u, rx(theta), atol=1e-12)

    def test_ry_pi_population_flip(self):
        u = semiclassical_unitary(schedule_ry(math.pi, 0.01, 5.0))
        out = u @ np.array([0.0, 1.0])     # |g>
        assert abs(out[0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, math.pi / 2, 2.5])
    def test_rz_composite_convention(self, theta):
        u = semiclassical_unitary(schedule_rz_composite(theta, 0.01, 5.0))
        target = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        assert_equal_up_to_global_phase(u, target)

    def test_rz_total_duration(self):
        g, alpha = 0.01, 5.0
        theta = 0.8
        sched = schedule_rz_composite(theta, g, alpha)
        assert sched.wall_time_fs == pytest.approx(
            (math.pi / 2 + theta + math.pi / 2) / (2 * g * alpha), rel=1e-14)

    def test_rz_zero_is_identity(self):
        u = semiclassical_unitary(schedule_rz_composite(0.0, 0.01, 5.0))
        assert_equal_up_to_global_phase(u, np.eye(2), atol=1e-12)


class TestVirtualZ:
    def test_zero_phase_noop(self):
        basis = make_basis(2, qubit_window(), 1)
        state = basis_ket(basis, (0.5, -0.5), 1)
        out = apply_virtual_z(state, {0: 0.0, 1: 0.0})
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_populations_invariant(self, rng):
        from conftest import random_state
        basis = make_basis(2, qubit_window(), 2)
        state = StateVector(basis, random_state(rng, basis.dimension))
        out = apply_virtual_z(state, {0: 0.7, 1: -1.3})
        for el in range(2):
            before = sideband_populations(state, el)
            after = sideband_populations(out, el)
            for n in before:
                assert after[n] == pytest.approx(before[n], rel=1e-15,
                                                 abs=1e-16)

    def test_additive_composition(self, rng):
        from conftest import random_state
        basis = make_basis(1, qubit_window(), 1)
        state = StateVector(basis, random_state(rng, basis.dimension))
        once = apply_virtual_z(state, {0: 0.9})
        twice = apply_virtual_z(apply_virtual_z(state, {0: 0.4}), {0: 0.5})
        assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-14)

    def test_qubit_phase_convention(self):
        basis = make_basis(1, qubit_window(), 0)
        plus = tensor_product(basis, [qubit_factor(math.pi / 2), fock_ket(0, 0)])
        out = apply_virtual_z(plus, {0: 0.25})
        e_idx = basis.encode((0.5,), 0)
        g_idx = basis.encode((-0.5,), 0)
        ratio = (out.amplitudes[e_idx] / plus.amplitudes[e_idx]) \
            / (out.amplitudes[g_idx] / plus.amplitudes[g_idx])
        assert ratio == pytest.approx(np.exp(-0.5j), abs=1e-12)


class TestIswapScheduling:
    def test_full_iswap_duration(self, fig2b_params):
        cp = fig2b_params.coupling
        sched = schedule_iswap(cp.delta_rad_per_fs, cp.g_rad_per_fs,
                               delta_signed=cp.delta_signed_rad_per_fs)
        expected = math.pi * cp.delta_rad_per_fs / (2 * cp.g_rad_per_fs ** 2)
        assert sched.wall_time_fs == pytest.approx(expected, rel=1e-14)
        # within 10% of the reported 7.81 ps
        assert sched.wall_time_fs == pytest.approx(7810.0, rel=0.1)

    def test_duration_linear_in_delta(self, fig2b_params):
        g = fig2b_params.coupling.g_rad_per_fs
        t1 = schedule_iswap(0.06, g).wall_time_fs
        t2 = schedule_iswap(0.12, g).wall_time_fs
        assert t2 == pytest.approx(2 * t1, rel=1e-14)

    def test_partial_pi_half_equals_full(self, fig2b_params):
        cp = fig2b_params.coupling
        full = schedule_iswap(cp.delta_rad_per_fs, cp.g_rad_per_fs)
        part = schedule_partial_iswap(math.pi / 2, cp.delta_rad_per_fs,
                                      cp.g_rad_per_fs)
        assert part.wall_time_fs == full.wall_time_fs

    def test_reference_durations_on_calibrated_scenario(self):
        params = make_scenario(beta=0.02, photon_energy_eV=6.2434,
                               phase_match_photon_energy_eV=6.20,
                               E_z_tilde_V_per_m=7.58e6)
        cp = params.coupling
        t1 = schedule_partial_iswap(math.acos(1 / math.sqrt(3)),
                                    cp.delta_rad_per_fs,
                                    cp.g_rad_per_fs).wall_time_fs
        t2 = schedule_partial_iswap(math.pi / 4, cp.delta_rad_per_fs,
                                    cp.g_rad_per_fs).wall_time_fs
        assert t1 == pytest.approx(4750.0, rel=3e-2)
        assert t2 == pytest.approx(3900.0, rel=3e-2)

    def test_dispersive_bound_warning(self):
        with pytest.warns(DispersiveRegimeWarning):
            sched = schedule_iswap(0.01, 0.005)    # g/Delta = 0.5
        assert sched.warnings

    def test_ideal_iswap_phases(self, fig2b_params):
        """4x4 exponential oracle: |eg> -> i-phased |ge> at J t = pi/2."""
        cp = fig2b_params.coupling
        basis = make_basis(2, qubit_window(), 0)
        h = build_dispersive_xy(cp.J_signed_rad_per_fs, basis)
        t_swap = math.pi / (2 * cp.J_rad_per_fs)
        u = expm(-1j * h.to_dense() * t_swap / HBAR)
        psi0 = basis_ket(basis, (0.5, -0.5), 0)
        out = u @ psi0.amplitudes
        ge = basis.encode((-0.5, 0.5), 0)
        assert abs(out[ge]) == pytest.approx(1.0, abs=1e-12)
        assert abs(out[ge].real) < 1e-12       # purely imaginary transfer


class TestWStatePlans:
    def test_three_qubit_angles(self):
        plan = wstate_digital_sequence(3)
        assert plan[0][0] == (0, 1) and plan[1][0] == (1, 2)
        assert plan[0][1] == pytest.approx(math.acos(1 / math.sqrt(3)))
        assert plan[1][1] == pytest.approx(math.pi / 4)

    def test_two_qubit_plan(self):
        plan = wstate_digital_sequence(2)
        assert len(plan) == 1
        assert plan[0][1] == pytest.approx(math.pi / 4)

    def test_arcsin_variant(self):
        plan = wstate_digital_sequence(3, convention="arcsin")
        assert plan[0][1] == pytest.approx(math.asin(1 / math.sqrt(3)))

    def test_too_few_qubits(self):
        with pytest.raises(DomainError):
            wstate_digital_sequence(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_ideal_xy_amplitudes(self, fig2b_params, n):
        """Sequential transfer on the exact exchange model gives 1/sqrt(N)."""
        cp = fig2b_params.coupling
        basis = make_basis(n, qubit_window(), 0)
        factors = [qubit_factor(0.0 if q == 0 else math.pi) for q in range(n)]
        state = tensor_product(basis, factors + [fock_ket(0, 0)])
        for pair, angle in wstate_digital_sequence(n):
            h = build_dispersive_xy(cp.J_signed_rad_per_fs, basis, pair=pair)
            state = propagate_eigen(h, state, angle / cp.J_rad_per_fs)
        vec = computational_state_vector(state)
        labels_single = [i for i in range(2 ** n)
                         if format(i, f"0{n}b").count("0") == 1]
        probs = np.abs(vec) ** 2
        for i in labels_single:
            assert probs[i] == pytest.approx(1.0 / n, abs=1e-9)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tc_analog_duration(self, fig2a_params):
        g = fig2a_params.coupling.g_rad_per_fs
        sched = wstate_tc_analog(3, g)
        assert sched.wall_time_fs == pytest.approx(250.0, rel=5e-2)
        single = wstate_tc_analog(1, g)
        assert single.wall_time_fs == pytest.approx(math.pi / (2 * g),
                                                    rel=1e-14)


class TestExecute:
    def test_zero_duration_identity(self, fig2a_params):
        basis = make_basis(1, qubit_window(), 5)
        psi0 = tensor_product(basis, [qubit_factor(math.pi),
                                      coherent_state(1.0, 5, 1e-3)])
        g = fig2a_params.coupling.g_rad_per_fs
        sched = schedule_rx(0.0, g, 1.0, model=ModelKind.JC_INTERACTION)
        res = execute(sched, psi0, fig2a_params,
                      ideal_target=np.array([0.0, 1.0]))
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.wall_time_fs == 0.0

    def test_self_consistent_ideal(self, fig2b_params):
        """Running the ideal model against its own evolution scores ~1."""
        basis = make_basis(2, qubit_window(), 0)
        cp = fig2b_params.coupling
        psi0 = tensor_product(basis, [qubit_factor(1.0), qubit_factor(2.0),
                                      fock_ket(0, 0)])
        h = build_dispersive_xy(cp.J_signed_rad_per_fs, basis)
        t = 1234.5
        ideal = computational_state_vector(propagate_eigen(h, psi0, t))
        seg_sched = schedule_partial_iswap(
            t * cp.J_rad_per_fs, cp.delta_rad_per_fs, cp.g_rad_per_fs,
            delta_signed=cp.delta_signed_rad_per_fs)
        # run the same XY model; its lab evolution has no extra diagonal
        res = execute(
            gates_schedule_without_vz(seg_sched), psi0, fig2b_params,
            model=ModelKind.DISPERSIVE_XY, ideal_target=ideal)
        assert res.fidelity >= 1.0 - 1e-9

    def test_ry_inverse_composition_full_model(self, fig2a_params):
        import dataclasses
        from feqo_lab import default_window
        params = dataclasses.replace(fig2a_params, dispersion_scale=100.0)
        basis = make_basis(1, default_window(6), 170)
        g = params.coupling.g_rad_per_fs
        g_ket = np.zeros(6, dtype=complex)
        g_ket[list(basis.sideband_indices).index(-0.5)] = 1.0
        psi0 = tensor_product(basis, [g_ket, coherent_state(10.0, 170)])
        fwd = schedule_ry(math.pi / 2, g, 10.0)
        bwd = schedule_ry(-math.pi / 2, g, 10.0)
        combined = type(fwd)(segments=fwd.segments + bwd.segments)
        res = execute(combined, psi0, params, model=ModelKind.PINEM_FULL,
                      config=PropagatorConfig(sample_every_fs=5.0))
        pops = sideband_populations(res.final_state, 0)
        assert pops[-0.5] == pytest.approx(1.0, abs=1e-3)

    def test_excitation_conserved_during_iswap(self, fig2b_params):
        basis = make_basis(2, qubit_window(), 3)
        cp = fig2b_params.coupling
        sched = schedule_iswap(cp.delta_rad_per_fs, cp.g_rad_per_fs,
                               delta_signed=cp.delta_signed_rad_per_fs)
        psi0 = tensor_product(
            basis, [qubit_factor(math.pi / 3), qubit_factor(11 * math.pi / 12),
                    fock_ket(0, 3)])
        res = execute(sched, psi0, fig2b_params,
                      config=PropagatorConfig(sample_every_fs=sched.wall_time_fs / 100))
        traj = res.trajectory
        window = np.asarray(basis.sideband_indices)
        exc = (traj.populations * window[None, None, :]).sum(axis=(1, 2)) \
            + traj.photon_mean
        assert np.max(np.abs(exc - exc[0])) < 1e-8 * max(abs(exc[0]), 1.0)

    def test_segment_states_match_prefix_runs_rz(self, fig2a_params):
        basis = make_basis(1, default_window(4), 20)
        g_ket = np.zeros(4, dtype=complex)
        g_ket[list(basis.sideband_indices).index(-0.5)] = 1.0
        psi0 = tensor_product(basis, [g_ket, coherent_state(2.0, 20)])
        sched = schedule_rz_composite(
            math.pi / 3, fig2a_params.coupling.g_rad_per_fs, 2.0)
        assert_checkpoints_are_prefix_states(sched, psi0, fig2a_params)

    def test_segment_states_match_prefix_runs_wstate(self, fig2b_params):
        cp = fig2b_params.coupling
        segs = []
        for pair, angle in wstate_digital_sequence(4):
            segs.extend(schedule_partial_iswap(
                angle, cp.delta_rad_per_fs, cp.g_rad_per_fs,
                delta_signed=cp.delta_signed_rad_per_fs, active=pair).segments)
        basis = make_basis(4, qubit_window(), 2)
        psi0 = basis_ket(basis, (0.5, -0.5, -0.5, -0.5), 0)
        assert_checkpoints_are_prefix_states(
            GateSchedule(segments=tuple(segs)), psi0, fig2b_params)


class TestScoreState:
    def test_pure_target_matches_density_operator_target(self, rng):
        # a leaky state: sidebands outside +-1/2 hold part of the weight
        basis = make_basis(2, default_window(4), 2)
        for _ in range(10):
            state = StateVector(basis, random_state(rng, basis.dimension))
            t = random_state(rng, 4)
            pure = score_state(state, t)
            mixed = score_state(state, DensityOperator(np.outer(t, t.conj())))
            assert pure.fidelity == pytest.approx(mixed.fidelity, abs=1e-7)
            # the Q route against the electron density matrix
            assert pure.fidelity == pytest.approx(pure_target_fidelity(
                computational_block(partial_trace(state), basis), t),
                abs=1e-12)
            assert pure.entropy_nats == pytest.approx(von_neumann_entropy(
                partial_trace(state, "electrons")), abs=1e-12)
            assert pure.leakage > 0.1

    def test_non_finite_target_refused(self, rng):
        basis = make_basis(2, qubit_window(), 1)
        state = StateVector(basis, random_state(rng, basis.dimension))
        with pytest.raises(DomainError, match="finite"):
            score_state(state, np.array([np.nan, 0.0, 0.0, 1.0]))


def assert_checkpoints_are_prefix_states(sched, psi0, params):
    """segment_states[k-1] is bitwise the final state of the k-segment prefix."""
    full = execute(sched, psi0, params)
    assert len(full.segment_states) == len(sched.segments)
    assert full.final_state is full.segment_states[-1]
    for k, state in enumerate(full.segment_states, start=1):
        prefix = execute(GateSchedule(segments=sched.segments[:k]), psi0,
                         params)
        assert np.array_equal(state.amplitudes,
                              prefix.final_state.amplitudes)


def gates_schedule_without_vz(sched):
    """Strip attached virtual-Z corrections (for ideal-model self-runs)."""
    import dataclasses
    segs = tuple(dataclasses.replace(s, virtual_z_after={})
                 for s in sched.segments)
    return type(sched)(segments=segs)
