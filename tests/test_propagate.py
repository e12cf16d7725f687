import dataclasses
import importlib.util
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm

from feqo_lab import (CODATA2018, DomainError, PropagationError,
                      PropagatorConfig, basis_ket, build_dispersive_xy,
                      build_jc, build_jc_interaction, build_pinem, build_tc,
                      coherent_state, default_window, excitation_observable,
                      make_basis, propagate, propagate_eigen, qubit_window,
                      tensor_product)
from feqo_lab.cli import experiments, run_experiment, run_wstate
from feqo_lab.hamiltonian import HermitianOperator
from feqo_lab.hilbert import StateVector, electron_populations
from feqo_lab.propagate import EIGEN_ORACLE, FIXED_STEP, _ChebyshevStepper

from conftest import random_state
from test_acceptance import _acceptance_scenarios

HBAR = CODATA2018.hbar_eV_fs
PROPAGATE = importlib.import_module("feqo_lab.propagate")


def plan_for(h, dt, steps=1, blocks=None):
    """The FIXED_STEP plan of `steps` intervals of dt on the given blocks of
    h (every block by default)."""
    psi0 = StateVector(h.basis, np.full(h.dimension, h.dimension ** -0.5,
                                        dtype=complex))
    with pytest.MonkeyPatch.context() as mp:
        if blocks is not None:
            mp.setattr(PROPAGATE, "_occupied_blocks", lambda H, psi: blocks)
        return PROPAGATE._plan(h, psi0, dt * steps, PropagatorConfig(
            method=FIXED_STEP, sample_every_fs=dt))


def stepper(h, dt, steps=1, blocks=None):
    return _ChebyshevStepper(h, plan_for(h, dt, steps, blocks))


def random_hermitian(rng, basis, scale=1.0):
    """Dense random Hermitian packed into the operator storage."""
    n = basis.dimension
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = (m + m.conj().T) / 2 * scale
    diag = np.real(np.diag(m)).copy()
    upper = sparse.csr_matrix(np.triu(m, k=1))
    return HermitianOperator(basis, diag, upper)


@pytest.fixture
def jc_g():
    return 0.05  # rad/fs


@pytest.fixture
def vacuum_block(jc_g):
    basis = make_basis(1, qubit_window(), 1)
    return basis, build_jc_interaction(jc_g, basis)


class TestBasics:
    def test_zero_hamiltonian_identity(self):
        basis = make_basis(1, qubit_window(), 2)
        h = build_jc_interaction(0.0, basis)
        psi0 = basis_ket(basis, (0.5,), 1)
        for method in (EIGEN_ORACLE, FIXED_STEP):
            traj = propagate(h, psi0, 17.0, PropagatorConfig(method=method))
            assert np.allclose(traj.final_state.amplitudes, psi0.amplitudes,
                               atol=1e-12)

    def test_t_zero_identity(self, vacuum_block):
        basis, h = vacuum_block
        psi0 = basis_ket(basis, (0.5,), 0)
        out = propagate_eigen(h, psi0, 0.0)
        assert np.allclose(out.amplitudes, psi0.amplitudes, atol=1e-14)

    def test_negative_time_rejected(self, vacuum_block):
        basis, h = vacuum_block
        with pytest.raises(DomainError):
            propagate(h, basis_ket(basis, (0.5,), 0), -1.0)

    def test_unnormalized_input_rejected(self, vacuum_block):
        basis, h = vacuum_block
        bad = StateVector(basis, np.full(basis.dimension, 0.9 + 0j))
        with pytest.raises(DomainError):
            propagate(h, bad, 1.0)


class TestFailClosed:
    """NaN norms fail the drift guards instead of slipping past them."""

    @pytest.mark.parametrize("method", [EIGEN_ORACLE, FIXED_STEP])
    def test_nan_initial_state_rejected(self, vacuum_block, method):
        basis, h = vacuum_block
        bad = StateVector(basis, np.full(basis.dimension, np.nan))
        with pytest.raises(DomainError):
            propagate(h, bad, 1.0, PropagatorConfig(method=method))

    def test_nan_sample_rejected(self, vacuum_block, monkeypatch):
        basis, h = vacuum_block
        monkeypatch.setattr(_ChebyshevStepper, "step",
                            lambda self, v: np.full_like(v, np.nan))
        with pytest.raises(PropagationError, match="norm drift nan at t = 1"):
            propagate(h, basis_ket(basis, (0.5,), 0), 2.0, PropagatorConfig(
                method=FIXED_STEP, sample_every_fs=1.0))

    def test_nan_final_state_rejected(self, vacuum_block, monkeypatch):
        basis, h = vacuum_block
        step = _ChebyshevStepper.step
        calls = []

        # samples at 0, 5/6 and 5/3 fs stay finite; the last step, to 2.5 fs,
        # breaks
        def third_step_breaks(self, v):
            calls.append(self.dt)
            return step(self, v) if len(calls) < 3 else np.full_like(v, np.nan)

        monkeypatch.setattr(_ChebyshevStepper, "step", third_step_breaks)
        with pytest.raises(PropagationError, match="norm drift nan at t = 2.5"):
            propagate(h, basis_ket(basis, (0.5,), 0), 2.5, PropagatorConfig(
                method=FIXED_STEP, sample_every_fs=1.0))
        assert calls == [2.5 / 3] * 3


class TestChunkedSampling:
    """Samples are reduced in chunks of at most CHUNK_AMPLITUDES amplitudes;
    a chunk bound of three samples must change no sampled number."""

    @staticmethod
    def case(strong_params, rng):
        basis = make_basis(2, default_window(4), 5)
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        return build_pinem(strong_params, basis), psi0

    @pytest.mark.parametrize("method", [EIGEN_ORACLE, FIXED_STEP])
    def test_chunks_match_one_pass(self, method, strong_params, rng,
                                   monkeypatch):
        h, psi0 = self.case(strong_params, rng)
        cfg = PropagatorConfig(method=method, sample_every_fs=0.2)
        whole = propagate(h, psi0, 2.0, cfg)           # 11 samples, one chunk
        monkeypatch.setattr(PROPAGATE, "CHUNK_AMPLITUDES", 3 * h.dimension)
        chunked = propagate(h, psi0, 2.0, cfg)         # chunks of 3, 3, 3, 2
        assert np.array_equal(whole.populations, chunked.populations)
        assert np.array_equal(whole.norm, chunked.norm)
        assert np.array_equal(whole.final_state.amplitudes,
                              chunked.final_state.amplitudes)
        for key in ("photon_mean", "entropy_nats"):
            assert np.max(np.abs(getattr(whole, key)
                                 - getattr(chunked, key))) < 1e-12, key

    def test_fixed_step_failure_in_a_later_chunk(self, vacuum_block,
                                                  monkeypatch):
        basis, h = vacuum_block
        monkeypatch.setattr(PROPAGATE, "CHUNK_AMPLITUDES", 3 * h.dimension)
        step = _ChebyshevStepper.step
        calls = []

        # samples 0..4 stay finite; the fifth step, to t = 5 fs, breaks,
        # inside the second chunk (samples 3, 4, 5)
        def fifth_step_breaks(self, v):
            calls.append(1)
            return step(self, v) if len(calls) < 5 else np.full_like(v, np.nan)

        monkeypatch.setattr(_ChebyshevStepper, "step", fifth_step_breaks)
        with pytest.raises(PropagationError, match="norm drift nan at t = 5 fs"):
            propagate(h, basis_ket(basis, (0.5,), 0), 9.0, PropagatorConfig(
                method=FIXED_STEP, sample_every_fs=1.0))
        assert len(calls) == 5

    def test_eigen_failure_in_a_later_chunk(self, vacuum_block, monkeypatch):
        basis, h = vacuum_block
        monkeypatch.setattr(PROPAGATE, "CHUNK_AMPLITUDES", 3 * h.dimension)
        route = PROPAGATE._eigen_route

        # amplitudes grow by half from t = 4.5 fs on: the first bad sample
        # is t = 5 fs, the second of the second chunk (samples 3, 4, 5)
        def growing_route(H, psi0, blocks):
            evolve = route(H, psi0, blocks)
            return lambda times: evolve(times) * np.where(
                np.asarray(times) > 4.5, 1.5, 1.0)[:, None]

        monkeypatch.setattr(PROPAGATE, "_eigen_route", growing_route)
        with pytest.raises(PropagationError,
                           match=r"norm drift 5\.000e-01 at t = 5 fs"):
            propagate(h, basis_ket(basis, (0.5,), 0), 9.0,
                      PropagatorConfig(sample_every_fs=1.0))


class TestVacuumRabi:
    @pytest.mark.parametrize("method", [EIGEN_ORACLE, FIXED_STEP])
    def test_excited_start(self, vacuum_block, jc_g, method):
        basis, h = vacuum_block
        psi0 = basis_ket(basis, (0.5,), 0)
        t_end = 4 * math.pi / jc_g
        traj = propagate(h, psi0, t_end,
                         PropagatorConfig(method=method,
                                          sample_every_fs=t_end / 400))
        e_col = list(basis.sideband_indices).index(0.5)
        analytic = np.cos(jc_g * traj.times_fs) ** 2
        rms = np.sqrt(np.mean((traj.populations[:, 0, e_col] - analytic) ** 2))
        assert rms < 1e-6

    def test_full_transfer_from_g1(self, vacuum_block, jc_g):
        basis, h = vacuum_block
        psi0 = basis_ket(basis, (-0.5,), 1)
        out = propagate_eigen(h, psi0, math.pi / (2 * jc_g))
        target = basis.encode((0.5,), 0)
        assert abs(out.amplitudes[target]) == pytest.approx(1.0, abs=1e-10)


class TestAccuracy:
    def test_unitarity_long_run(self, rng):
        basis = make_basis(1, qubit_window(), 15)
        h = random_hermitian(rng, basis, scale=0.3)
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        # ~1e3 characteristic periods of the spectral width
        lo, hi = h.gershgorin_interval()
        t_end = 1e3 * 2 * math.pi * HBAR / max(hi - lo, 1e-6)
        for method in (EIGEN_ORACLE, FIXED_STEP):
            traj = propagate(h, psi0, t_end, PropagatorConfig(
                method=method, sample_every_fs=t_end / 50))
            assert np.max(np.abs(traj.norm - 1.0)) < 1e-9

    def test_composition(self, rng):
        basis = make_basis(1, qubit_window(), 7)
        h = random_hermitian(rng, basis, scale=0.5)
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        t1, t2 = 3.7, 9.1
        for method in (EIGEN_ORACLE, FIXED_STEP):
            cfg = PropagatorConfig(method=method)
            once = propagate(h, psi0, t1 + t2, cfg).final_state
            twice = propagate(h, propagate(h, psi0, t1, cfg).final_state,
                              t2, cfg).final_state
            assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-8

    def test_fixed_vs_eigen_random(self, rng):
        basis = make_basis(2, qubit_window(), 3)
        h = random_hermitian(rng, basis, scale=2.0)
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        t_end = 250.0
        fixed = propagate(h, psi0, t_end,
                          PropagatorConfig(method=FIXED_STEP)).final_state
        exact = propagate_eigen(h, psi0, t_end)
        fid = abs(np.vdot(exact.amplitudes, fixed.amplitudes)) ** 2
        assert fid >= 1.0 - 1e-10

    def test_energy_conserved(self, vacuum_block, jc_g):
        basis, h = vacuum_block
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.encode((0.5,), 0)] = math.sqrt(0.3)
        amps[basis.encode((-0.5,), 1)] = math.sqrt(0.7) * 1j
        psi0 = StateVector(basis, amps)
        e0 = h.expectation(psi0)
        for t in (10.0, 100.0, 1000.0):
            et = h.expectation(propagate_eigen(h, psi0, t))
            assert abs(et - e0) <= 1e-10 * max(abs(e0), 1e-3)

    def test_excitation_conserved_along_trajectory(self, fig2a_params):
        basis = make_basis(1, qubit_window(), 40)
        g = fig2a_params.coupling.g_rad_per_fs
        h = build_jc_interaction(g, basis)
        psi0 = tensor_product(basis, [np.array([1.0, 0.0]),
                                      coherent_state(3.0, 40)])
        n_tot = excitation_observable(basis)
        cfg = PropagatorConfig(method=EIGEN_ORACLE, sample_every_fs=20.0)
        w, v = h.eigensystem()
        coeff = v.conj().T @ psi0.amplitudes
        vals = []
        for t in np.arange(0.0, 400.0, 20.0):
            amps = v @ (np.exp(-1j * w * t / HBAR) * coeff)
            vals.append(n_tot.expectation(StateVector(basis, amps)))
        vals = np.asarray(vals)
        assert np.max(np.abs(vals - vals[0])) < 1e-8 * abs(vals[0])


class TestSamplingContract:
    @pytest.mark.parametrize("total,step,expected", [
        (10.0, 1.0, 11), (10.0, 3.0, 5), (7.5, 2.0, 5), (1.0, 2.0, 2),
    ])
    def test_sample_count(self, vacuum_block, total, step, expected):
        basis, h = vacuum_block
        traj = propagate(h, basis_ket(basis, (0.5,), 0), total,
                         PropagatorConfig(sample_every_fs=step))
        assert len(traj.times_fs) == expected

    def test_final_state_at_full_duration(self, vacuum_block, jc_g):
        basis, h = vacuum_block
        psi0 = basis_ket(basis, (0.5,), 0)
        traj = propagate(h, psi0, 7.5, PropagatorConfig(
            method=FIXED_STEP, sample_every_fs=2.0))
        exact = propagate_eigen(h, psi0, 7.5)
        assert np.max(np.abs(traj.final_state.amplitudes
                             - exact.amplitudes)) < 1e-12

    def test_interval_count_bound(self, vacuum_block, monkeypatch):
        basis, h = vacuum_block
        psi0 = basis_ket(basis, (0.5,), 0)
        monkeypatch.setattr(importlib.import_module("feqo_lab.propagate"),
                            "MAX_INTERVALS", 4)
        traj = propagate(h, psi0, 10.0, PropagatorConfig(sample_every_fs=2.5))
        assert len(traj.times_fs) == 5
        for gap in (2.4, 1e-300):
            with pytest.raises(DomainError, match="more than 4 intervals"):
                propagate(h, psi0, 10.0, PropagatorConfig(sample_every_fs=gap))

    def test_chebyshev_cost_bounds(self, vacuum_block, monkeypatch):
        # 4 intervals of 2.5 fs, 64 coefficients a step: probed on 2 columns,
        # 40800 entries touched (40016 of them the 4 samples) and 2304 bytes;
        # streamed, 41552 and 2176; 4 * 64 terms round the norm by 2.8e-14
        basis, h = vacuum_block
        psi0 = basis_ket(basis, (0.5,), 0)
        cfg = PropagatorConfig(method=FIXED_STEP, sample_every_fs=2.5,
                               duration_key="run.total_time_fs")
        monkeypatch.setattr(PROPAGATE, "MAX_WORK", 40800)
        monkeypatch.setattr(PROPAGATE, "MAX_BYTES", 2304)
        assert len(propagate(h, psi0, 10.0, cfg).times_fs) == 5
        monkeypatch.setattr(PROPAGATE, "MAX_WORK", 40799)
        with pytest.raises(DomainError, match=r"probed on 2 states: about "
                           r"4\.08e\+04 stored entries touched, .* above "
                           r"MAX_WORK = 4\.08e\+04; .*it fits with --set "
                           r"run\.total_time_fs=.*; it fits on the eigen "
                           r"route with --set propagator\.method=eigen$"):
            propagate(h, psi0, 10.0, cfg)
        monkeypatch.setattr(PROPAGATE, "MAX_WORK", 41552)
        monkeypatch.setattr(PROPAGATE, "MAX_BYTES", 2176)
        assert len(propagate(h, psi0, 10.0, cfg).times_fs) == 5
        monkeypatch.setattr(PROPAGATE, "MAX_BYTES", 2175)
        with pytest.raises(DomainError, match=r"streamed on 2 states: .* "
                           r"2\.18e\+03 bytes .*above MAX_BYTES = 2\.18e\+03; "
                           r".*it fits with --set run\.total_time_fs=.*; it "
                           r"fits on the eigen route"):
            propagate(h, psi0, 10.0, cfg)
        drift = 4 * 64 * 2.0 ** -53
        monkeypatch.setattr(PROPAGATE, "MAX_BYTES", 2304)
        tight = dataclasses.replace(cfg, norm_tol=drift)
        assert len(propagate(h, psi0, 10.0, tight).times_fs) == 5
        with pytest.raises(DomainError, match=r"norm drift of 2\.8e-14, "
                           r"above norm_tol = 2\.81e-14; .*it fits on the "
                           r"eigen route"):
            propagate(h, psi0, 10.0, dataclasses.replace(
                tight, norm_tol=0.99 * drift))

    def test_unaffordable_step_refused_before_allocating(self, vacuum_block,
                                                          monkeypatch):
        basis, h = vacuum_block
        monkeypatch.setattr(PROPAGATE.special, "jv", None)   # never reached
        with pytest.raises(DomainError, match="Chebyshev step"):
            propagate(h, basis_ket(basis, (0.5,), 0), 1e300,
                      PropagatorConfig(method=FIXED_STEP))

    def test_probe_or_stream(self, vacuum_block, monkeypatch):
        # the occupied block {|e,0>, |g,1>}: 2 probe columns on 2 states, in
        # 2304 bytes; 4 intervals pay for the probe, 1 does not
        basis, h = vacuum_block
        block = [np.sort([basis.encode((0.5,), 0), basis.encode((-0.5,), 1)])]
        assert any(np.array_equal(block[0], idx) for idx in h.blocks())
        monkeypatch.setattr(PROPAGATE, "MAX_BYTES", 2304)
        assert stepper(h, 2.5, 4, block).u is not None
        assert stepper(h, 2.5, 1, block).u is None   # 1 interval
        probed = propagate(h, basis_ket(basis, (0.5,), 0), 10.0,
                           PropagatorConfig(method=FIXED_STEP,
                                            sample_every_fs=2.5))
        monkeypatch.setattr(PROPAGATE, "MAX_BYTES", 2303)
        assert stepper(h, 2.5, 4, block).u is None
        streamed = propagate(h, basis_ket(basis, (0.5,), 0), 10.0,
                             PropagatorConfig(method=FIXED_STEP,
                                              sample_every_fs=2.5))
        assert np.max(np.abs(probed.final_state.amplitudes
                             - streamed.final_state.amplitudes)) < 1e-14
        assert np.max(np.abs(probed.populations - streamed.populations)) \
            < 1e-14

    def test_block_above_both_caps_streams_without_allocating(
            self, strong_params, rng, monkeypatch):
        # 6696 states in blocks of at most 216: the eigen route would hold
        # 8.3e7 bytes and the four probe arrays 4 * 6696 * 216 * 16 B = 9.3e7,
        # both above 2**24
        basis = make_basis(3, default_window(6), 30)
        h = build_pinem(strong_params, basis)
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        exact = propagate_eigen(h, psi0, 0.5).amplitudes
        h.to_csr()   # cached before the measured call
        monkeypatch.setattr(PROPAGATE, "MAX_BYTES", 2 ** 24)
        with pytest.raises(PropagationError, match="above MAX_BYTES = "
                           r"1\.68e\+07; .*; it fits on FIXED_STEP with --set "
                           "propagator.method=fixed_step$"):
            propagate_eigen(h, psi0, 0.5)
        # the default MAX_WORK refuses 220 streamed intervals (6.4e8 entries);
        # the wider sample gap the refusal names fits
        with pytest.raises(DomainError, match=r"220 Chebyshev steps .* "
                           r"streamed on 6696 states: about 6\.38e\+08 .*"
                           r"above MAX_WORK = 5e\+08; it fits with --set "
                           r"propagator\.sample_every_fs=(\S+);") as refusal:
            propagate(h, psi0, 0.5, PropagatorConfig(
                method=FIXED_STEP, sample_every_fs=0.5 / 220))
        gap = float(re.search(r"sample_every_fs=([^;\s]+);",
                              str(refusal.value))[1])
        tracemalloc.start()
        try:
            traj = propagate(h, psi0, 0.5, PropagatorConfig(
                method=FIXED_STEP, sample_every_fs=gap))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24   # less than one probe array
        assert np.max(np.abs(traj.final_state.amplitudes - exact)) < 1e-10

    def test_invalid_config(self):
        with pytest.raises(DomainError):
            PropagatorConfig(method="leapfrog")
        for gap in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                PropagatorConfig(sample_every_fs=gap)


class TestDimensionCap:
    @staticmethod
    def set_cap(monkeypatch, cap):
        monkeypatch.setattr(importlib.import_module("feqo_lab.propagate"),
                            "MAX_WORK", cap)

    def test_eigen_cap_directs_to_fixed_step(self, rng, monkeypatch):
        basis = make_basis(1, qubit_window(), 7)
        h = random_hermitian(rng, basis, scale=0.2)
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        self.set_cap(monkeypatch, 4)
        with pytest.raises(PropagationError, match="FIXED_STEP"):
            propagate(h, psi0, 1.0)
        with pytest.raises(PropagationError, match="FIXED_STEP"):
            propagate_eigen(h, psi0, 1.0)

    def test_cap_bounds_the_largest_block(self, rng, monkeypatch):
        # a 16-state JC ladder has blocks of at most 2 states: 7 pairs and
        # 2 singletons, sum(b^3) = 58; one sample adds sum(b^2) = 30, the
        # 16 amplitudes and SAMPLE_WORK
        basis = make_basis(1, qubit_window(), 7)
        h = build_jc_interaction(0.05, basis)
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        self.set_cap(monkeypatch, 10104)
        propagate_eigen(h, psi0, 1.0)
        self.set_cap(monkeypatch, 10103)
        with pytest.raises(PropagationError,
                           match=r"\b2 states: about 1\.01e\+04 .*"
                                 r"MAX_WORK = 1\.01e\+04; .*FIXED_STEP"):
            propagate_eigen(h, psi0, 1.0)

    def test_three_electron_pinem_runs_on_the_eigen_route(self, strong_params,
                                                          rng, monkeypatch):
        # 6696 states in blocks of at most 216: sum(b^3) = 2.6e8
        basis = make_basis(3, default_window(6), 30)
        h = build_pinem(strong_params, basis)
        assert basis.dimension == 6696
        assert max(idx.size for idx in h.blocks()) == 216
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        eigen, fixed = (propagate(h, psi0, 2.0, PropagatorConfig(
            method=method, sample_every_fs=0.5))
            for method in (EIGEN_ORACLE, FIXED_STEP))
        assert np.max(np.abs(eigen.final_state.amplitudes
                             - fixed.final_state.amplitudes)) < 1e-9
        assert np.max(np.abs(eigen.populations - fixed.populations)) < 1e-10
        self.set_cap(monkeypatch, sum(idx.size ** 3 for idx in h.blocks()) - 1)
        with pytest.raises(PropagationError, match=r"\b216 states"):
            propagate(h, psi0, 2.0)


def _block_cases(p, p_b):
    """One operator per builder, each on a basis with many blocks."""
    pinem = make_basis(2, default_window(4), 5)
    qubits = make_basis(3, qubit_window(), 4)
    return {
        "pinem": build_pinem(p, pinem),
        "pinem_exact_kn": build_pinem(dataclasses.replace(p, exact_kn=True),
                                      pinem),
        "jc": build_jc(p, make_basis(1, qubit_window(), 12)),
        "tc": build_tc(p_b, qubits),
        "tc_active": build_tc(p_b, qubits, active=(0, 2)),
        "jc_interaction": build_jc_interaction(
            p.coupling.g_rad_per_fs, qubits),
        "dispersive_xy": build_dispersive_xy(
            p_b.coupling.J_signed_rad_per_fs, qubits, pair=(0, 2)),
    }


class TestBlockRoute:
    """The blockwise eigen route against one dense eigh of the full H."""

    @staticmethod
    def dense_evolution(h, psi0, t):
        w, v = np.linalg.eigh(h.to_dense())
        coeff = v.conj().T @ psi0.amplitudes
        return v @ (np.exp(-1j * w * t / HBAR) * coeff)

    @pytest.mark.parametrize("case", ["pinem", "pinem_exact_kn", "jc", "tc",
                                      "tc_active", "jc_interaction",
                                      "dispersive_xy"])
    def test_builders_match_dense_eigh(self, case, strong_params,
                                       fig2b_params, rng):
        h = _block_cases(strong_params, fig2b_params)[case]
        assert len(h.blocks()) > 4
        for _ in range(3):
            psi0 = StateVector(h.basis, random_state(rng, h.dimension))
            for t in (0.0, 0.7, 13.0, 210.0):
                out = propagate_eigen(h, psi0, t)
                assert np.max(np.abs(out.amplitudes - self.dense_evolution(
                    h, psi0, t))) < 1e-9, (case, t)

    def test_blocks_partition_the_basis(self, strong_params, fig2b_params):
        for case, h in _block_cases(strong_params, fig2b_params).items():
            flat = np.sort(np.concatenate(h.blocks()))
            assert np.array_equal(flat, np.arange(h.dimension)), case
            w, v = h.eigensystem()
            eye = sparse.identity(h.dimension)
            assert abs(v.conj().T @ v - eye).max() < 1e-12, case
            assert abs(h.to_csr() @ v - v @ sparse.diags(w)).max() < 1e-10, \
                case

    def test_occupied_blocks_match_full_route(self, strong_params,
                                              fig2b_params, rng):
        h = _block_cases(strong_params, fig2b_params)["tc"]
        blocks = h.blocks()
        chosen = np.sort(np.concatenate([blocks[1], blocks[-2]]))
        assert chosen.size < h.dimension
        amps = np.zeros(h.dimension, dtype=complex)
        amps[chosen] = random_state(rng, chosen.size)
        psi0 = StateVector(h.basis, amps)

        # the solved blocks are the matching columns of the full solution
        w_full, v_full = h.eigensystem()
        w, v = h.eigensystem([blocks[1], blocks[-2]])
        assert np.array_equal(w, w_full[chosen])
        assert (v != v_full[:, chosen]).nnz == 0

        total = 40.0
        cfg = PropagatorConfig(sample_every_fs=total / 20)
        traj = propagate(h, psi0, total, cfg)
        coeff = v_full.conj().T @ amps
        for k, t in enumerate(traj.times_fs):
            ref = v_full @ (np.exp(-1j * w_full * t / HBAR) * coeff)
            ref_state = StateVector(h.basis, ref)
            assert np.max(np.abs(traj.populations[k] - electron_populations(
                ref_state))) < 1e-13
        outside = np.setdiff1d(np.arange(h.dimension), chosen)
        assert not np.any(traj.final_state.amplitudes[outside])
        assert np.max(np.abs(traj.final_state.amplitudes - ref)) < 1e-13

        fixed = propagate(h, psi0, total, PropagatorConfig(
            method=FIXED_STEP, sample_every_fs=total / 20))
        assert np.max(np.abs(traj.final_state.amplitudes
                             - fixed.final_state.amplitudes)) < 1e-9
        assert np.max(np.abs(traj.populations - fixed.populations)) < 1e-10
        assert np.max(np.abs(traj.entropy_nats - fixed.entropy_nats)) < 1e-9

    def test_dense_random_hermitian_is_one_block(self, rng):
        basis = make_basis(2, qubit_window(), 3)
        h = random_hermitian(rng, basis, scale=2.0)
        assert len(h.blocks()) == 1
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        for t in (0.3, 25.0):
            assert np.max(np.abs(propagate_eigen(h, psi0, t).amplitudes
                                 - self.dense_evolution(h, psi0, t))) < 1e-10


class TestBlockShift:
    """The Chebyshev route shifts each block of H by its own centre."""

    @staticmethod
    def kept_terms(h, dt):
        return len(stepper(h, dt).coeff)

    def test_block_energy_offset_costs_no_terms(self, fig2a_params, rng):
        # two decoupled copies of a JC operator, the second 1000 eV higher
        one = build_jc(fig2a_params, make_basis(1, qubit_window(), 5))
        basis = make_basis(1, qubit_window(), 11)
        two = HermitianOperator(
            basis, np.concatenate([one.diag, one.diag + 1000.0]),
            sparse.block_diag([one.upper, one.upper], format="csr"))
        assert self.kept_terms(two, 10.0) == self.kept_terms(one, 10.0) < 60
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        eigen, fixed = (propagate(two, psi0, 100.0, PropagatorConfig(
            method=method, sample_every_fs=10.0))
            for method in (EIGEN_ORACLE, FIXED_STEP))
        assert np.max(np.abs(eigen.final_state.amplitudes
                             - fixed.final_state.amplitudes)) < 1e-10
        assert np.max(np.abs(eigen.populations - fixed.populations)) < 1e-10

    def test_one_block_keeps_the_whole_interval_centre(self, rng):
        basis = make_basis(2, qubit_window(), 3)
        h = random_hermitian(rng, basis, scale=2.0)
        lo, hi = h.gershgorin_interval()
        plan = plan_for(h, 0.5)
        assert np.all(plan.centres == 0.5 * (hi + lo))
        assert plan.radius == 0.5 * (hi - lo) * 1.01 + 1e-12

    def test_wrong_blocks_fail_closed(self, rng, monkeypatch):
        basis = make_basis(2, qubit_window(), 3)
        h = random_hermitian(rng, basis, scale=2.0)
        half = basis.dimension // 2
        monkeypatch.setattr(h, "blocks", lambda: np.split(
            np.arange(basis.dimension), [half]))
        psi0 = StateVector(basis, random_state(rng, basis.dimension))
        with pytest.raises(PropagationError, match="block centres"):
            propagate(h, psi0, 5.0, PropagatorConfig(method=FIXED_STEP))

    def test_equal_centre_split_fails_closed(self, vacuum_block, monkeypatch):
        # [[0, g], [g, 0]] split into two singletons: both centres are 0
        basis, h = vacuum_block
        assert not np.any(h.diag)
        singletons = [np.array([k]) for k in range(basis.dimension)]
        with pytest.raises(PropagationError, match="block centres"):
            plan_for(h, 0.5, 1, singletons)
        monkeypatch.setattr(h, "blocks", lambda: singletons)
        with pytest.raises(PropagationError, match="block centres"):
            propagate(h, basis_ket(basis, (0.5,), 0), 5.0,
                      PropagatorConfig(method=FIXED_STEP))

    def test_coupling_to_an_unsolved_state_fails_closed(self, vacuum_block):
        basis, h = vacuum_block
        excited = np.array([basis.encode((0.5,), 0)])   # its partner |g,1>
        with pytest.raises(PropagationError, match="block centres"):
            plan_for(h, 0.5, 1, [excited])

    # kept terms of one step at criterion 10's dt = T / 50; a whole-H
    # interval kept 851, 38, 4299, 3338, 6224, 605 and 201
    @pytest.mark.parametrize("name,bound", [
        ("fig2a", 80), ("fig2a_strong", 15), ("fig2b", 40),
        ("fig3_gate1", 35), ("s1", 1300), ("s2", 90), ("wstate_analog", 10),
    ])
    def test_acceptance_scenario_term_counts(self, name, bound):
        h, _, total = next(case[1:] for case in _acceptance_scenarios()
                           if case[0] == name)
        assert self.kept_terms(h, total / 50) <= bound


class TestStepOperator:
    """The probed step operator against scipy.linalg.expm, block by block."""

    @staticmethod
    def check(h, dt, blocks=None):
        # twice as many steps as the widest block has states: the probe pays
        width = max(idx.size for idx in blocks or h.blocks())
        step = stepper(h, dt, 2 * width, blocks)
        u, dense = step.u.toarray(), h.to_dense()
        outside = np.ones(u.shape, dtype=bool)
        for idx in h.blocks() if blocks is None else blocks:
            cut = np.ix_(idx, idx)
            u_b = u[cut]
            assert np.max(np.abs(u_b - expm(-1j * dense[cut] * dt / HBAR))) \
                < 1e-12
            assert np.max(np.abs(u_b.conj().T @ u_b - np.eye(idx.size))) \
                < 1e-13
            outside[cut] = False
        assert not np.any(u[outside])
        assert step.u.nnz <= sum(idx.size ** 2 for idx in h.blocks())

    @pytest.mark.parametrize("case", ["pinem", "pinem_exact_kn", "jc", "tc",
                                      "tc_active", "jc_interaction",
                                      "dispersive_xy"])
    @pytest.mark.parametrize("dt", [0.7, 13.0])
    def test_builders_match_expm(self, case, dt, strong_params,
                                 fig2b_params):
        h = _block_cases(strong_params, fig2b_params)[case]
        self.check(h, dt)
        self.check(h, dt, h.blocks()[::2])   # every other block solved

    @pytest.mark.parametrize("dt", [0.5, 3.0])
    def test_dense_random_hermitian_matches_expm(self, rng, dt):
        h = random_hermitian(rng, make_basis(2, qubit_window(), 3), scale=2.0)
        assert len(h.blocks()) == 1
        self.check(h, dt)

    @pytest.mark.parametrize("case", ["pinem", "tc_active",
                                      "dispersive_xy"])
    def test_streamed_step_matches_the_probed_one(self, case, rng,
                                                   strong_params,
                                                   fig2b_params, monkeypatch):
        h = _block_cases(strong_params, fig2b_params)[case]
        blocks = h.blocks()[::2]
        v = random_state(rng, h.dimension)
        probed = stepper(h, 0.7, h.dimension, blocks)
        monkeypatch.setattr(PROPAGATE, "MAX_BYTES", plan_for(
            h, 0.7, h.dimension, blocks).bytes - 1)
        streamed = stepper(h, 0.7, h.dimension, blocks)
        assert probed.u is not None and streamed.u is None
        assert np.max(np.abs(streamed.step(v) - probed.step(v))) < 1e-13
        unsolved = np.setdiff1d(np.arange(h.dimension), np.concatenate(blocks))
        assert unsolved.size and not np.any(streamed.step(v)[unsolved])

    def test_register_probes_its_occupied_block(self, tmp_path, monkeypatch):
        # analog W at N = 10: psi0 = |g...g, 1> occupies one block of N + 1
        # states, so every probe matvec takes N + 1 columns
        shapes = []
        matvec = HermitianOperator.matvec

        def spy(self, v):
            shapes.append(v.shape)
            return matvec(self, v)

        monkeypatch.setattr(HermitianOperator, "matvec", spy)
        record = run_wstate(10, "analog", overrides={
            "propagator.method": FIXED_STEP}, out_dir=tmp_path, fmt="json")
        assert shapes and {shape[1] for shape in shapes} == {11}
        assert abs(record.metrics["fidelity_w"] - 1.0) < 1e-12


def _named_runs():
    """RUNS of tools/compare_runs.py: the runs a refactor must not move."""
    path = Path(__file__).parents[1] / "tools" / "compare_runs.py"
    spec = importlib.util.spec_from_file_location("compare_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUNS


class TestPlan:
    """One cost plan per propagation, refused before anything is allocated
    with the --set changes under which it fits."""

    @pytest.fixture(scope="class")
    def cases(self, strong_params, fig2b_params):
        return {**_block_cases(strong_params, fig2b_params),
                "dense": random_hermitian(np.random.default_rng(7), make_basis(
                    2, qubit_window(), 3), scale=2.0)}

    def test_long_run_is_priced_as_a_probe(self, tmp_path, monkeypatch):
        # s1_bragg for 1e7 fs sampled every 20 fs: 500000 intervals of 1081
        # coefficients, probed once on 6 columns, then 500000 sparse products;
        # 5.4e8 terms round the norm by 6e-8, above the 1e-8 norm guard, and
        # the rounding follows the duration, whatever the sample gap
        plan, args = PROPAGATE._plan, []
        monkeypatch.setattr(PROPAGATE, "_plan",
                            lambda *a: args.append(a) or plan(*a))
        with pytest.raises(DomainError, match=(
                r"500000 Chebyshev steps of 20 fs, about 1\.08e\+03 terms "
                r"each, probed on 219 states: about 5\.76e\+09 stored entries "
                r"touched, 1\.19e\+05 bytes and a norm drift of 6e-08, above "
                r"MAX_WORK = 5e\+08 and norm_tol = 1e-08; no "
                r"propagator\.sample_every_fs fits it; it fits with --set "
                r"run\.total_time_fs=\S+; it fits on the eigen route with "
                r"--set propagator\.method=eigen --set "
                r"propagator\.sample_every_fs=\S+$")):
            run_experiment("s1_bragg", out_dir=tmp_path, sets=[
                "propagator.method=fixed_step", "run.total_time_fs=1e7",
                "propagator.sample_every_fs=20"])
        assert not any(tmp_path.iterdir())
        h, psi0, total, cfg = args[-1]
        monkeypatch.setattr(PROPAGATE, "MAX_WORK", 5.77e9)
        fitting = plan(h, psi0, total, dataclasses.replace(
            cfg, norm_tol=500000 * 1081 * 2.0 ** -53))
        assert fitting.route == FIXED_STEP and fitting.probe
        assert fitting.intervals == 500000 and fitting.terms == 1081
        assert max(idx.size for idx in fitting.blocks) == 6

    @staticmethod
    def ways_out(message):
        """(route, --set pairs, duration) of each way out a refusal names;
        None for a route no sample gap fits."""
        for way in message.split("; ")[1:]:
            route = re.search(r" on (FIXED_STEP|the eigen route)", way)
            sets = dict(re.findall(r"--set ([\w.]+)=(\S+)", way))
            span = re.fullmatch(r"it fits in (\S+) fs", way)
            if way.startswith("no propagator.sample_every_fs fits it"):
                yield route and route[1], None, None
            elif way.startswith("it fits"):
                assert sets or span, way
                yield sets.get("propagator.method"), sets, span and span[1]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=st.sampled_from(["jc", "jc_interaction", "tc", "pinem",
                                 "dense"]),
           method=st.sampled_from([EIGEN_ORACLE, FIXED_STEP]),
           log_time=st.floats(-1.0, 9.0),
           log_gap=st.none() | st.floats(-9.0, 0.0),
           log_budgets=st.tuples(st.integers(1, 6), st.floats(5.0, 9.0),
                                 st.floats(3.5, 7.0)),
           log_tol=st.floats(-14.0, -6.0),
           key=st.none() | st.just("run.total_time_fs"))
    def test_each_refusal_names_a_way_out_that_runs(
            self, cases, case, method, log_time, log_gap, log_budgets,
            log_tol, key):
        h = cases[case]
        psi0 = StateVector(h.basis, np.full(h.dimension, h.dimension ** -0.5,
                                            dtype=complex))
        total = 10.0 ** log_time
        cfg = PropagatorConfig(
            method=method, sample_every_fs=None if log_gap is None
            else total * 10.0 ** log_gap, norm_tol=10.0 ** log_tol,
            duration_key=key)
        with pytest.MonkeyPatch.context() as mp:
            for name, log in zip(("MAX_INTERVALS", "MAX_WORK", "MAX_BYTES"),
                                 log_budgets):
                mp.setattr(PROPAGATE, name, 10 ** log)
            try:
                PROPAGATE._plan(h, psi0, total, cfg)
                return
            except (DomainError, PropagationError) as exc:
                refusal = exc
            message = str(refusal)
            event(f"{type(refusal).__name__}: " + ", ".join(
                re.sub(r"=\S+|[\d.e+-]+ fs", "", way)
                for way in message.split("; ")[1:]))
            assert isinstance(refusal, PropagationError) == (
                method == EIGEN_ORACLE and "intervals" not in message)
            assert ("run.total_time_fs" in message) <= (key is not None)
            for route, sets, span in self.ways_out(message):
                if sets is None:   # no sample gap fits on that route
                    assert route is None or route != method
                    continue
                named = dataclasses.replace(
                    cfg, method=sets.get("propagator.method", method),
                    sample_every_fs=float(sets.get(
                        "propagator.sample_every_fs", cfg.sample_every_fs
                        or 0)) or None)
                plan = PROPAGATE._plan(h, psi0, float(
                    span or sets.get("run.total_time_fs", total)), named)
                assert plan.route == named.method

    def test_named_runs_keep_their_routes_and_paths(self, tmp_path,
                                                    monkeypatch):
        # every fixed_step propagation probes, but fig2a's full model over
        # 5 intervals, which do not pay for probing its 6-state blocks
        plan, plans = PROPAGATE._plan, []
        monkeypatch.setattr(PROPAGATE, "_plan",
                            lambda *a: plans.append(plan(*a)) or plans[-1])
        for run_id, entry, args, sets in _named_runs():
            plans.clear()
            getattr(experiments, entry)(*args, out_dir=tmp_path / run_id,
                                        sets=sets)
            if "fixed_step" not in run_id:
                assert all(p.route == EIGEN_ORACLE for p in plans), run_id
                continue
            # propagate_eigen plans the eigen route in any run
            stepped = [p for p in plans
                       if p.route == FIXED_STEP and p.intervals]
            assert stepped, run_id
            probes = [p.probe for p in stepped]
            assert probes == ([False, True] if "gap10" in run_id
                              else [True] * len(probes)), run_id

