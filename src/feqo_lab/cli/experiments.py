"""Experiment orchestration: named reproductions and result serialization.

Every run emits a summary JSON (the reproducibility record: config echo,
derived parameters, metrics, file paths), per-trajectory CSVs, and a
plot-data JSON.  Dimensioned numbers carry their unit in the key name.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .. import analytics, gates, hamiltonian, hilbert, physpar
from ..errors import DomainError, GratingError
from ..hamiltonian import ModelKind
from ..hilbert import StateVector
from ..propagate import PropagatorConfig, Trajectory
from ..propagate import propagate as propagate_state
from ..propagate import propagate_eigen
from .config import DYNAMIC_KEYS, SCENARIO_KEYS, ConfigError, ScenarioConfig
from .presets import PRESETS, WSTATE_ANALOG_BASE

__all__ = ["ResultRecord", "run_experiment", "run_wstate", "run_gate",
           "export_density_matrix", "available_experiments"]

CSV_DIGITS = 9

@dataclass
class ResultRecord:
    """Config echo, derived parameters, metrics, and emitted file paths."""

    experiment: str
    config: dict[str, Any]
    derived: dict[str, Any]
    metrics: dict[str, Any]
    files: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def available_experiments() -> tuple[str, ...]:
    return tuple(PRESETS)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":    # tolist gives JSON-ready numbers
            return obj.tolist()
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _non_finite_keys(obj, path: str):
    """Key paths of the non-finite numbers in a payload _write_json takes."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _non_finite_keys(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _non_finite_keys(value, f"{path}[{i}]")
    elif isinstance(obj, (float, complex, np.number, np.ndarray)):
        for index in np.argwhere(~np.isfinite(obj))[:1]:
            yield path + "".join(f"[{i}]" for i in index)


def _write_json(path: Path, payload) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    return str(path)


def _write_trajectory_csv(path: Path, traj: Trajectory) -> str:
    basis = traj.basis
    cols = ["t_fs"]
    for el in range(basis.num_electrons):
        for n in basis.sideband_indices:
            cols.append(f"pop_e{el + 1}_n{n:g}")
    cols += ["photon_mean", "entropy_nats", "norm"]
    samples = len(traj.times_fs)
    table = np.column_stack([traj.times_fs,
                             traj.populations.reshape(samples, -1),
                             traj.photon_mean, traj.entropy_nats, traj.norm])
    row = ",".join([f"%.{CSV_DIGITS}g"] * len(cols))
    lines = [",".join(cols)] + [row % tuple(r) for r in table.tolist()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _plot_series(traj: Trajectory, tag: str) -> list[dict]:
    basis = traj.basis
    series = []
    for el in range(basis.num_electrons):
        for j, n in enumerate(basis.sideband_indices):
            series.append({"label": f"{tag} P(e{el + 1}, n={n:g})",
                           "values": traj.populations[:, el, j]})
    series.append({"label": f"{tag} photon mean", "values": traj.photon_mean})
    return series


def _emit(out: Path, fmt: str, record: ResultRecord,
          csvs: dict[str, Trajectory], plot: tuple | None) -> ResultRecord:
    """Write a run's files, each named after record.experiment: for fmt csv
    or both a trajectory CSV per csvs entry (keyed by file-name infix), for
    json or both the plot-data JSON from plot = (title, times, series), and
    always, last, the summary, which lists every file written before it.
    A non-finite number in the summary or plot data is refused by its key
    path before any file is written."""
    name = record.experiment
    plot_data = None
    if fmt in ("json", "both") and plot is not None:
        title, times, series = plot
        plot_data = {"title": title, "x": {"label": "t_fs", "values": times},
                     "series": series}
    for tag, payload in (("summary", record.to_dict()),
                         ("plotdata", plot_data)):
        bad = next(_non_finite_keys(payload, tag), None)
        if bad is not None:
            raise DomainError(f"{bad} is not a finite number")
    if fmt in ("csv", "both"):
        for infix, traj in csvs.items():
            record.files.append(_write_trajectory_csv(
                out / f"{name}{infix}_trajectory.csv", traj))
    if plot_data is not None:
        record.files.append(_write_json(out / f"{name}_plotdata.json",
                                        plot_data))
    record.files.append(_write_json(out / f"{name}_summary.json",
                                    record.to_dict()))
    return record


def export_density_matrix(state_or_rho, path, qubit_subset=None) -> str:
    """Write a qubit-block density matrix as JSON (real/imag + labels).

    Accepts a StateVector, whose qubit-block amplitudes Q are contracted
    with their conjugate over the photon and the qubits outside qubit_subset,
    or an explicit qubit-block matrix, traced over those qubits.  More than
    3 kept qubits are refused for full-matrix export.
    """
    if isinstance(state_or_rho, StateVector):
        n = state_or_rho.basis.num_electrons
    else:
        block = np.asarray(state_or_rho.matrix
                           if isinstance(state_or_rho, hilbert.DensityOperator)
                           else state_or_rho, dtype=np.complex128)
        n = int(round(math.log2(block.shape[0])))
    keep = tuple(range(n) if qubit_subset is None else qubit_subset)
    if len(keep) > 3:
        raise DomainError("full-matrix export is limited to 3 qubits" + (
            "; pass a qubit_subset" if qubit_subset is None else ""))
    if len(set(keep)) != len(keep) or any(not 0 <= q < n for q in keep):
        raise DomainError(f"invalid qubit subset {keep} of {n} qubits")
    if isinstance(state_or_rho, StateVector):
        q = hilbert.qubit_amplitudes(state_or_rho).reshape((2,) * n + (-1,))
        # rows index the qubits and the photon 0..n; a kept qubit a has its
        # own column index n + 1 + a, every other index is summed
        cols = [n + 1 + a if a in keep else a for a in range(n)] + [n]
        block = np.einsum(q, [*range(n + 1)], q.conj(), cols,
                          [*keep, *(n + 1 + a for a in keep)]
                          ).reshape(2 ** len(keep), -1)
    elif qubit_subset is not None:
        block = hilbert.reduce_operator(block, (2,) * n, keep)
    labels = hilbert.computational_labels(len(keep))
    payload = {
        "basis_labels": list(labels),
        "real": block.real,
        "imag": block.imag,
    }
    return _write_json(Path(path), payload)


# ----------------------------------------------------------------------
# derived-parameter echo
# ----------------------------------------------------------------------

def _derived_dict(params: physpar.ScenarioParams) -> dict[str, Any]:
    el, dr, md, cp = params.electron, params.drive, params.mode, params.coupling
    out = {
        "gamma": el.gamma,
        "v0_m_per_s": el.v0_m_per_s,
        "k0_per_m": el.k0_per_m,
        "p0_kg_m_per_s": el.p0_kg_m_per_s,
        "photon_energy_eV": dr.photon_energy_eV,
        "omega_L_rad_per_fs": dr.omega_L_rad_per_fs,
        "wavelength_nm": dr.wavelength_nm,
        "grating_period_nm": dr.grating_period_nm,
        "q_per_nm": dr.q_per_nm,
        "E_z_tilde_V_per_m": md.E_z_tilde_V_per_m,
        "box_volume_m3": md.box_volume_m3,
        "g_rad_per_fs": cp.g_rad_per_fs,
        "g_signed_rad_per_fs": cp.g_signed_rad_per_fs,
        "g_over_omega": cp.g_over_omega,
        "Delta_rad_per_fs": cp.delta_rad_per_fs,
        "Delta_signed_rad_per_fs": cp.delta_signed_rad_per_fs,
        "omega_rec_rad_per_fs": cp.omega_rec_rad_per_fs,
        "dispersion_scale": params.dispersion_scale,
    }
    if cp.J_rad_per_fs is not None:
        out["J_rad_per_fs"] = cp.J_rad_per_fs
        out["J_signed_rad_per_fs"] = cp.J_signed_rad_per_fs
        out["g_over_Delta"] = cp.g_rad_per_fs / cp.delta_rad_per_fs
    return out


def _rms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def _refine_peak(ts: np.ndarray, ys: np.ndarray) -> float:
    """Vertex of the parabola through the sampled maximum and its neighbors."""
    k = int(np.argmax(ys))
    if k == 0 or k == len(ts) - 1:
        return float(ts[k])
    c = np.polyfit(ts[k - 1:k + 2], ys[k - 1:k + 2], 2)
    return float(-c[1] / (2.0 * c[0]))


def _pinem_vs_jc(cfg: ScenarioConfig, params, schedule: gates.GateSchedule,
                 ideal_target=None, duration_key: str | None = None):
    """Execute schedule from gate.initial times the coherent drive on the
    full PINEM model and on the quantized ideal JC (the bare +-1/2 pair).

    Returns (PINEM result, JC result, rms of their qubit populations).  A
    refused propagation names duration_key, the key of the schedule's
    duration, if the run has one.
    """
    basis = cfg.to_basis()
    photon = hilbert.coherent_state(cfg.alpha(), basis.fock_cutoff)
    label = (hilbert.E_LABEL if cfg.values["gate.initial"] == "e"
             else hilbert.G_LABEL)
    prop = cfg.to_propagator(schedule.wall_time_fs, duration_key)

    def run(kind: ModelKind, b: hilbert.BasisSpec) -> gates.GateResult:
        ket = (np.asarray(b.sideband_indices) == label).astype(np.complex128)
        return gates.execute(schedule, hilbert.tensor_product(b, [ket, photon]),
                             params, model=kind, ideal_target=ideal_target,
                             config=prop)
    full = run(ModelKind.PINEM_FULL, basis)
    jc = run(ModelKind.JC_INTERACTION,
             hilbert.make_basis(1, hilbert.qubit_window(), basis.fock_cutoff))
    rms = _rms(full.trajectory.computational_populations()[:, 0, :],
               jc.trajectory.computational_populations()[:, 0, :])
    return full, jc, rms


# ----------------------------------------------------------------------
# individual experiments: runner(cfg, params, record, out) fills
# record.metrics and returns (csvs, plot) for _emit
# ----------------------------------------------------------------------

def _run_params_only(cfg: ScenarioConfig, params, record, out: Path):
    record.metrics.update({
        "E_half_minus_E_minus_half_eV":
            physpar.sideband_energy(0.5, params)
            - physpar.sideband_energy(-0.5, params),
        "leak_detuning_eV": physpar.transition_detuning(0.5, params),
    })
    return {}, None


def _run_smith_purcell(cfg: ScenarioConfig, params, record, out: Path):
    beta = params.electron.beta
    lam = params.drive.wavelength_nm
    theta = params.drive.incidence_theta_rad
    metrics = record.metrics
    metrics.update({
        "Lambda_classical_nm": physpar.classical_grating_period(lam, beta),
        "Lambda_m1_nm": physpar.quantum_grating_period(lam, theta, beta, 1),
        "Lambda_m2_nm": physpar.quantum_grating_period(lam, theta, beta, 2),
    })
    try:
        physpar.quantum_grating_period(lam, theta, beta, 0)
        metrics["m0_rejected"] = False
    except GratingError as exc:
        metrics["m0_rejected"] = True
        metrics["m0_error"] = str(exc)
    return {}, None


def _resonant_gate_run(cfg: ScenarioConfig, params, record, out: Path):
    """fig2a / fig2a_strong / gate rx|ry|rz: full-model gate vs the ideal JC
    dynamics."""
    name = record.experiment
    alpha = cfg.alpha()
    g = params.coupling.g_rad_per_fs
    theta = cfg.values["gate.theta_rad"]

    gate_type = cfg.values["gate.type"]
    factories = {"rx": gates.schedule_rx, "ry": gates.schedule_ry,
                 "rz": gates.schedule_rz_composite}
    if gate_type not in factories:
        raise ConfigError(f"gate.type {gate_type!r}: {name} runs rx, ry or rz")
    schedule = factories[gate_type](theta, g, alpha)
    total = schedule.wall_time_fs
    if total == 0:
        raise DomainError(f"{name}: {gate_type}({theta}) takes no time")

    # semiclassical 2x2 target in the (e, g) ordering
    q0 = np.array([1.0, 0.0] if cfg.values["gate.initial"] == "e"
                  else [0.0, 1.0], dtype=np.complex128)
    target = gates.semiclassical_unitary(schedule) @ q0
    result, result_jc, rms = _pinem_vs_jc(cfg, params, schedule, target)
    traj, traj_jc = result.trajectory, result_jc.trajectory

    record.metrics.update({
        "duration_fs": total,
        "fidelity": result.fidelity,
        "entropy_nats": result.entropy_nats,
        "entropy_over_ln2": result.entropy_over_ln2,
        "leakage_final": result.leakage,
        "leakage_max": float(np.max(traj.leakage())),
        "rms_vs_ideal_jc": rms,
        "ideal_jc_fidelity": result_jc.fidelity,
        "photon_mean_final": float(traj.photon_mean[-1]),
    })
    if gate_type == "rx" and abs(theta - math.pi) < 1e-12:
        record.metrics["T_pi_fs"] = total
    series = _plot_series(traj, "PINEM") + _plot_series(traj_jc, "JC")
    return ({"_pinem": traj, "_ideal_jc": traj_jc},
            (f"{name}: resonant X gate populations", traj.times_fs, series))


def _xy_ideal_states(params, qubit_factors: list[np.ndarray], plan
                     ) -> list[np.ndarray]:
    """Exact dispersive-XY register states after each gate of the plan.

    qubit_factors are window-ordered (g, e) two-vectors; the returned target
    vectors are reordered to the (e, g) gate convention.
    """
    n_qubits = len(qubit_factors)
    basis_xy = hilbert.make_basis(n_qubits, hilbert.qubit_window(), 0)
    state = hilbert.tensor_product(basis_xy, [*qubit_factors,
                                              hilbert.fock_ket(0, 0)])
    out = []
    for (pair, angle) in plan:
        h_xy = hamiltonian.build_model(ModelKind.DISPERSIVE_XY, params,
                                       basis_xy, active=pair)
        duration = angle / params.coupling.J_rad_per_fs
        state = propagate_eigen(h_xy, state, duration)
        out.append(hilbert.computational_state_vector(state))
    return out


def _check_detuned(params: physpar.ScenarioParams):
    """The dispersive gates need a drive detuned from the qubit transition."""
    if params.coupling.J_rad_per_fs is None:
        raise ConfigError("drive.photon_energy_eV: the dispersive gates need "
                          "a drive detuned from the qubit transition")


def _dispersive_gate(cfg: ScenarioConfig, params, basis, angle: float):
    """Partial iSWAP(angle) on the configured two-qubit register, scored
    against the exact XY evolution of the same initial qubits.

    Returns (schedule, propagator config, GateResult).
    """
    _check_detuned(params)
    cp = params.coupling
    schedule = gates.schedule_partial_iswap(
        angle, cp.delta_rad_per_fs, cp.g_rad_per_fs,
        delta_signed=cp.delta_signed_rad_per_fs)
    prop = cfg.to_propagator(schedule.wall_time_fs)
    thetas = (cfg.values["initial.theta_1_rad"],
              cfg.values["initial.theta_2_rad"])
    psi0 = hilbert.tensor_product(basis, [
        *(hilbert.qubit_factor(t, basis.sideband_indices) for t in thetas),
        hilbert.fock_ket(0, basis.fock_cutoff)])
    qfactors = [hilbert.qubit_factor(t) for t in thetas]
    ideal = _xy_ideal_states(params, qfactors, [((0, 1), angle)])[-1]
    result = gates.execute(schedule, psi0, params, ideal_target=ideal,
                           config=prop)
    return schedule, prop, result


def _run_fig2b(cfg: ScenarioConfig, params, record, out: Path):
    basis = cfg.to_basis()
    schedule, prop, result = _dispersive_gate(cfg, params, basis, math.pi / 2)
    total = schedule.wall_time_fs

    # transfer-peak probe: |eg>, vacuum photon; population of qubit 2 on e
    probe0 = hilbert.basis_ket(basis, (hilbert.E_LABEL, hilbert.G_LABEL), 0)
    h_tc = hamiltonian.build_model(ModelKind.TC_LAB, params, basis)
    probe_prop = PropagatorConfig(
        method=prop.method, sample_every_fs=1.2 * total / 600,
        norm_tol=prop.norm_tol)
    probe = propagate_state(h_tc, probe0, 1.2 * total, probe_prop)
    e_col = list(basis.sideband_indices).index(hilbert.E_LABEL)
    p2e = probe.populations[:, 1, e_col]
    peak = _refine_peak(probe.times_fs, p2e)
    traj = result.trajectory

    record.metrics.update({
        "T_iswap_fs": total,
        "fidelity_post_virtual_z": result.fidelity,
        "virtual_z_phase_rad": schedule.segments[0].virtual_z_after[0],
        "transfer_peak_fs": peak,
        "transfer_peak_rel_dev": abs(peak - total) / total,
        "entropy_nats": result.entropy_nats,
        "leakage_final": result.leakage,
        "photon_mean_final": float(traj.photon_mean[-1]),
    })
    return ({"": traj, "_probe": probe},
            ("fig2b: dispersive iSWAP populations", traj.times_fs,
             _plot_series(traj, "TC")))


def _run_register_gate(cfg: ScenarioConfig, params, record, out: Path):
    """gate iswap / partial-iswap on the fig2b register."""
    gate_type = cfg.values["gate.type"]
    angle = (math.pi / 2 if gate_type == "iswap"
             else cfg.values["gate.theta_rad"])
    schedule, _, result = _dispersive_gate(cfg, params, cfg.to_basis(), angle)
    record.metrics.update({
        "duration_fs": schedule.wall_time_fs,
        "rotation_angle_rad": angle,
        "fidelity": result.fidelity,
        "leakage_final": result.leakage,
        "entropy_nats": result.entropy_nats,
    })
    traj = result.trajectory
    return {"": traj} if traj is not None else {}, None


def _run_fig3(cfg: ScenarioConfig, params, record, out: Path):
    _check_detuned(params)
    basis = cfg.to_basis()
    cp = params.coupling
    n_q = basis.num_electrons
    convention = cfg.values["wstate.convention"]
    plan = gates.wstate_digital_sequence(n_q, convention)
    segs = []
    for pair, angle in plan:
        segs.extend(gates.schedule_partial_iswap(
            angle, cp.delta_rad_per_fs, cp.g_rad_per_fs,
            delta_signed=cp.delta_signed_rad_per_fs, active=pair).segments)

    # |eg...g>: excitation enters on qubit 1
    qfactors = [hilbert.qubit_factor(0.0 if q == 0 else math.pi)
                for q in range(n_q)]
    ideal_states = _xy_ideal_states(params, qfactors, plan)

    psi0 = hilbert.basis_ket(
        basis, (hilbert.E_LABEL,) + (hilbert.G_LABEL,) * (n_q - 1), 0)

    schedule = gates.GateSchedule(segments=tuple(segs))
    metrics = record.metrics
    metrics.update({"convention": convention,
                    "T_total_fs": schedule.wall_time_fs})
    result = gates.execute(schedule, psi0, params,
                           config=cfg.to_propagator(schedule.wall_time_fs))
    # full matrices up to 3 qubits; above, the pair each gate acts on
    wide = n_q > 3
    for k, (seg, state, ideal) in enumerate(
            zip(segs, result.segment_states, ideal_states), start=1):
        metrics[f"T_theta{k}_fs"] = seg.duration_fs
        metrics[f"fidelity_step{k}"] = gates.score_state(state, ideal).fidelity
        record.files.append(export_density_matrix(
            state, out / f"fig3_rho_step{k}.json",
            qubit_subset=seg.active_electrons if wide else None))

    # readout frame correction on qubit 2 clears the geg-vs-egg phase
    corrected = gates.apply_virtual_z(result.final_state, {1: math.pi / 4})
    diag = np.sum(np.abs(hilbert.qubit_amplitudes(corrected)) ** 2, axis=1)
    labels = hilbert.computational_labels(n_q)
    single_exc = [i for i, lab in enumerate(labels) if lab.count("e") == 1]
    metrics["diag_populations"] = {labels[i]: float(diag[i])
                                   for i in single_exc}
    metrics["virtual_rz_on_qubit2_rad"] = math.pi / 2
    metrics["leakage_final"] = result.leakage
    record.files.append(export_density_matrix(
        corrected, out / "fig3_rho_corrected.json",
        qubit_subset=(0, 1) if wide else None))

    traj = result.trajectory
    return ({"": traj}, ("fig3: W-state preparation", traj.times_fs,
                         _plot_series(traj, "TC")))


def _run_collapse_revival(cfg: ScenarioConfig, params, record, out: Path):
    """s1_bragg / s2_ramannath: full model vs ideal JC vs the exact series."""
    alpha = cfg.alpha()
    g = params.coupling.g_rad_per_fs
    init_label = cfg.values["gate.initial"]
    schedule = gates.GateSchedule(segments=(gates.ScheduleSegment(
        ModelKind.PINEM_FULL, cfg.values["run.total_time_fs"]),))
    result, result_jc, rms_full = _pinem_vs_jc(
        cfg, params, schedule, duration_key="run.total_time_fs")
    traj, traj_jc = result.trajectory, result_jc.trajectory

    series = analytics.pe_exact_sum(alpha, g, traj.times_fs,
                                    initial=init_label)
    # computational columns are (g, e)
    rms_series = _rms(series, traj_jc.computational_populations()[:, 0, 1])

    pred = analytics.collapse_revival_times(alpha, g)
    window = np.linspace(0.75 * pred.t_rev_fs, 1.25 * pred.t_rev_fs, 1200)
    revival = analytics.pe_exact_sum(alpha, g, window, initial=init_label)
    leak = traj.leakage()
    above = np.nonzero(leak > 0.01)[0]

    record.metrics.update({
        "g_rad_per_fs": g,
        "t_coll_gaussian_fs": pred.t_coll_gaussian_fs,
        "t_c_adjacent_fs": pred.t_c_adjacent_fs,
        "t_rev_fs": pred.t_rev_fs,
        "rms_series_vs_jc": rms_series,
        "rms_full_vs_jc": rms_full,
        "revival_peak_to_peak": float(revival.max() - revival.min()),
        "leakage_max": float(leak.max()),
        "leakage_first_above_1pc_fs":
            float(traj.times_fs[above[0]]) if above.size else None,
        "regime": analytics.classify_regime(params, alpha).regime,
    })
    series_plots = _plot_series(traj, "PINEM")
    series_plots.append({"label": "exact series P_e", "values": series})
    return ({"_pinem": traj, "_ideal_jc": traj_jc},
            (f"{record.experiment}: collapse and revival", traj.times_fs,
             series_plots))


def _run_wstate_analog(cfg: ScenarioConfig, params, record, out: Path):
    basis = cfg.to_basis()
    n_qubits = basis.num_electrons
    g = params.coupling.g_rad_per_fs
    schedule = gates.wstate_tc_analog(n_qubits, g)
    total = schedule.wall_time_fs
    prop = cfg.to_propagator(total)

    psi0 = hilbert.basis_ket(basis, (hilbert.G_LABEL,) * n_qubits, 1)

    w_target = np.array([lab.count("e") == 1 for lab in
                         hilbert.computational_labels(n_qubits)]) \
        / math.sqrt(n_qubits)

    result = gates.execute(schedule, psi0, params, ideal_target=w_target,
                           config=prop)
    traj = result.trajectory
    record.metrics.update({
        "T_TC_fs": total,
        "fidelity_w": result.fidelity,
        "photon_mean_final": float(traj.photon_mean[-1]),
        "entropy_nats": result.entropy_nats,
    })
    return {"": traj}, ("analog W state via resonant TC", traj.times_fs,
                        _plot_series(traj, "TC"))


# Keys of which a run supports one value, fixed so that another value is
# refused by name: the PINEM runs act on one electron, the TC and XY runs on
# the +-1/2 sideband pair, and the iSWAPs on two electrons.
_PINEM = {"basis.num_electrons": 1}
_QUBIT_PAIR = {"basis.sidebands": 2}
_TWO_QUBITS = {"basis.num_electrons": 2, "basis.sidebands": 2}

# run name (the record's experiment) -> (preset, base keys, fixed keys,
# runner).  A run reads its base keys, its preset's keys and its fixed keys,
# and no other; no later source may change a fixed key.
_RUNS = {
    "params_only": (PRESETS["params_only"], SCENARIO_KEYS, {},
                    _run_params_only),
    "smith_purcell": (PRESETS["smith_purcell"], SCENARIO_KEYS, {},
                      _run_smith_purcell),
    "fig2a": (PRESETS["fig2a"], DYNAMIC_KEYS, _PINEM, _resonant_gate_run),
    "fig2a_strong": (PRESETS["fig2a_strong"], DYNAMIC_KEYS, _PINEM,
                     _resonant_gate_run),
    "fig2b": (PRESETS["fig2b"], DYNAMIC_KEYS, _TWO_QUBITS, _run_fig2b),
    "fig3": (PRESETS["fig3"], DYNAMIC_KEYS, _QUBIT_PAIR, _run_fig3),
    "s1_bragg": (PRESETS["s1_bragg"], DYNAMIC_KEYS, _PINEM,
                 _run_collapse_revival),
    "s2_ramannath": (PRESETS["s2_ramannath"], DYNAMIC_KEYS, _PINEM,
                     _run_collapse_revival),
    **{f"gate_{t}": (PRESETS["fig2a"], DYNAMIC_KEYS,
                     {**_PINEM, "gate.type": t}, _resonant_gate_run)
       for t in ("rx", "ry", "rz")},
    "gate_iswap": (PRESETS["fig2b"], DYNAMIC_KEYS,
                   {**_TWO_QUBITS, "gate.type": "iswap"}, _run_register_gate),
    "gate_partial_iswap": ({**PRESETS["fig2b"], "gate.theta_rad": math.pi / 4},
                           DYNAMIC_KEYS,
                           {**_TWO_QUBITS, "gate.type": "partial_iswap"},
                           _run_register_gate),
    "wstate_analog": (WSTATE_ANALOG_BASE, DYNAMIC_KEYS, _QUBIT_PAIR,
                      _run_wstate_analog),
}


def _merged_config(preset: dict[str, Any], read: set[str] | frozenset[str],
                   fixed: dict[str, Any], overrides: dict[str, Any] | None,
                   config_text: str | None, sets: list[str] | None
                   ) -> ScenarioConfig:
    """Preset, then the run's fixed keys, then caller overrides, then the
    config file text and --set pairs; every merged key must be one the run
    reads, and no later source may change a fixed key."""
    cfg = ScenarioConfig.from_sources(
        preset={**preset, **fixed, **(overrides or {})},
        file_text=config_text, sets=sets)
    unread = sorted(cfg.values.keys() - read)
    if unread:
        raise ConfigError(f"this run does not read {', '.join(unread)}")
    for key, value in fixed.items():
        if cfg.values[key] != value:
            raise ConfigError(f"{key}: this run fixes {value!r}, the config "
                              f"sets {cfg.values[key]!r}")
    return cfg


def _run(name: str, fixed: dict[str, Any], overrides: dict[str, Any] | None,
         out_dir, fmt: str, config_text: str | None, sets: list[str] | None
         ) -> ResultRecord:
    """Merge and check the config of run `name` with the entry point's own
    fixed keys, check fmt, derive the scenario and start the record once,
    then let the row's runner fill it and write its files through _emit."""
    preset, base, row_fixed, runner = _RUNS[name]
    cfg = _merged_config(preset, base | preset.keys() | row_fixed.keys(),
                         {**row_fixed, **fixed}, overrides, config_text, sets)
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"format must be csv, json, or both, not {fmt!r}")
    params = cfg.to_scenario()
    record = ResultRecord(name, dict(cfg.values), _derived_dict(params), {})
    out = Path(out_dir)
    return _emit(out, fmt, record, *runner(cfg, params, record, out))


def run_wstate(n_qubits: int, mode: str, overrides: dict[str, Any] | None = None,
               out_dir=".", fmt: str = "both", sets: list[str] | None = None,
               config_text: str | None = None) -> ResultRecord:
    """Analog (resonant TC) or digital (partial-iSWAP) W-state preparation."""
    names = {"digital": "fig3", "analog": "wstate_analog"}
    if mode not in names:
        raise ConfigError(f"wstate mode must be digital or analog, not {mode!r}")
    return _run(names[mode], {"basis.num_electrons": n_qubits}, overrides,
                out_dir, fmt, config_text, sets)


def run_gate(gate_type: str, theta: float | None = None,
             overrides: dict[str, Any] | None = None, out_dir=".",
             fmt: str = "both", sets: list[str] | None = None,
             config_text: str | None = None) -> ResultRecord:
    """Run a single named gate on the matching preset scenario."""
    name = f"gate_{gate_type}"
    if name not in _RUNS:
        raise ConfigError(f"unknown gate type {gate_type!r}")
    fixed = {} if theta is None else {"gate.theta_rad": theta}
    return _run(name, fixed, overrides, out_dir, fmt, config_text, sets)


def run_experiment(name: str, overrides: dict[str, Any] | None = None,
                   out_dir=".", fmt: str = "both",
                   config_text: str | None = None,
                   sets: list[str] | None = None) -> ResultRecord:
    """Run a named preset experiment and write its result files."""
    if name not in PRESETS:
        raise ConfigError(f"unknown experiment {name!r}; available: "
                          f"{', '.join(sorted(PRESETS))}")
    return _run(name, {}, overrides, out_dir, fmt, config_text, sets)
