"""Gate scheduling, execution, frame corrections, and scoring.

Scheduling conventions (pinned by the oracle tests):
  * a drive segment with rotation angle theta >= 0 and field phase phi acts,
    in the semiclassical limit, as exp(-i(theta/2)(cos(phi) sx - sin(phi) sy))
    in the (e, g) basis; negative angles fold into a pi phase flip;
  * Rx(theta) uses phi = 0, the Ry segment adds pi/2 to the field phase;
  * virtual Z with phase phi multiplies a sideband-n amplitude by
    exp(-2i n phi), i.e. diag(e^{-i phi}, e^{+i phi}) on the (e, g) pair;
  * the dispersive exchange runs at the signed rate J = g^2/(v0 q - omega_L);
    each iSWAP-family segment carries the Lamb-shift correction
    phi = -J_signed T / 2 per participating qubit, applied at the segment
    boundary (frame tracking), never as physical evolution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .errors import BasisError, DomainError
from .hamiltonian import ModelKind, build_model
from .hilbert import (DensityOperator, StateVector, qubit_fidelity,
                      sideband_leakage, state_metrics)
from .physpar import _HBAR, ScenarioParams
from .propagate import PropagatorConfig, Trajectory, propagate

__all__ = [
    "ScheduleSegment",
    "GateSchedule",
    "StateScore",
    "GateResult",
    "schedule_rx",
    "schedule_ry",
    "schedule_rz_composite",
    "schedule_iswap",
    "schedule_partial_iswap",
    "wstate_digital_sequence",
    "wstate_tc_analog",
    "apply_virtual_z",
    "semiclassical_unitary",
    "score_state",
    "execute",
    "DispersiveRegimeWarning",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)


class DispersiveRegimeWarning(UserWarning):
    """Raised when |g/Delta| exceeds the configured dispersive-validity bound."""


@dataclass(frozen=True)
class ScheduleSegment:
    """One constant-drive stretch of a gate schedule."""

    model_kind: ModelKind
    duration_fs: float
    drive_phase_rad: float = 0.0
    active_electrons: tuple[int, ...] | None = None
    rotation_angle_rad: float = 0.0      # semiclassical 2g|alpha|T, bookkeeping
    virtual_z_after: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.duration_fs < 0:
            raise DomainError("segment duration must be >= 0")


@dataclass
class GateSchedule:
    """Ordered drive segments, each with its attached virtual-Z phases."""

    segments: tuple[ScheduleSegment, ...]
    warnings: tuple[str, ...] = ()

    @property
    def wall_time_fs(self) -> float:
        # added in segment order, as execute joins its trajectory's times
        # (sum() compensates float rounding from Python 3.12 on)
        return reduce(add, (seg.duration_fs for seg in self.segments), 0.0)


@dataclass
class StateScore:
    """Metrics of one register state."""

    fidelity: float | None
    entropy_nats: float
    leakage: float

    @property
    def entropy_over_ln2(self) -> float:
        return self.entropy_nats / math.log(2.0)


@dataclass
class GateResult(StateScore):
    """Post-execution state of one schedule and the score of its final state.
    trajectory samples the whole schedule, from t = 0 to wall_time_fs (None
    when no segment takes time); segment_states are as execute keeps them."""

    final_state: StateVector
    wall_time_fs: float
    trajectory: Trajectory | None = None
    segment_states: list[StateVector] = field(default_factory=list)


def _rot_segment(angle: float, base_phase: float, g: float, alpha: complex,
                 model: ModelKind) -> ScheduleSegment:
    if angle == 0:
        return ScheduleSegment(model_kind=model, duration_fs=0.0,
                               drive_phase_rad=base_phase)
    if g <= 0 or abs(alpha) == 0:
        raise DomainError("rotation segments need g > 0 and |alpha| > 0")
    duration = abs(angle) / (2.0 * g * abs(alpha))
    phase = base_phase + (math.pi if angle < 0 else 0.0)
    return ScheduleSegment(model_kind=model, duration_fs=duration,
                           drive_phase_rad=phase,
                           rotation_angle_rad=abs(angle))


def schedule_rx(theta: float, g: float, alpha: complex,
                model: ModelKind = ModelKind.PINEM_FULL) -> GateSchedule:
    """Resonant X rotation: one segment of duration theta / (2 g |alpha|)."""
    return GateSchedule(segments=(_rot_segment(theta, 0.0, g, alpha, model),))


def schedule_ry(theta: float, g: float, alpha: complex,
                model: ModelKind = ModelKind.PINEM_FULL) -> GateSchedule:
    """Same duration as Rx; the light field carries an extra pi/2 phase."""
    return GateSchedule(segments=(_rot_segment(theta, math.pi / 2, g, alpha,
                                               model),))


def schedule_rz_composite(theta: float, g: float, alpha: complex,
                          model: ModelKind = ModelKind.PINEM_FULL) -> GateSchedule:
    """Composite Rz(theta) = Rx(pi/2) Ry(theta) Rx(-pi/2) (time order reversed).

    The middle segment carries angle -theta so the product equals
    diag(e^{-i theta/2}, e^{+i theta/2}) up to global phase; total overhead is
    one pi pulse.
    """
    segs = (_rot_segment(-math.pi / 2, 0.0, g, alpha, model),
            _rot_segment(-theta, math.pi / 2, g, alpha, model),
            _rot_segment(math.pi / 2, 0.0, g, alpha, model))
    return GateSchedule(segments=segs)


def schedule_iswap(delta: float, g: float, *, delta_signed: float | None = None,
                   dispersive_bound: float = 0.1,
                   active: tuple[int, int] = (0, 1)) -> GateSchedule:
    """Full iSWAP: one detuned TC segment of duration pi*Delta/(2 g^2)."""
    return schedule_partial_iswap(math.pi / 2.0, delta, g,
                                  delta_signed=delta_signed,
                                  dispersive_bound=dispersive_bound,
                                  active=active)


def schedule_partial_iswap(rotation_angle: float, delta: float, g: float, *,
                           delta_signed: float | None = None,
                           dispersive_bound: float = 0.1,
                           active: tuple[int, int] = (0, 1)) -> GateSchedule:
    """Partial iSWAP(theta): XY rotation angle J*t = theta, duration theta/J."""
    if delta <= 0:
        raise DomainError("dispersive scheduling needs Delta > 0")
    if g <= 0:
        raise DomainError("need g > 0")
    if rotation_angle < 0:
        raise DomainError("XY rotation angle must be >= 0")
    signed = delta_signed if delta_signed is not None else delta
    if abs(abs(signed) - delta) > 1e-9 * delta:
        raise DomainError("delta_signed magnitude disagrees with Delta")
    J = g * g / delta
    J_signed = g * g / signed
    duration = rotation_angle / J
    notes = []
    ratio = g / delta
    if ratio > dispersive_bound:
        msg = (f"|g/Delta| = {ratio:.4f} exceeds the dispersive-validity "
               f"bound {dispersive_bound}; proceeding anyway")
        warnings.warn(msg, DispersiveRegimeWarning, stacklevel=2)
        notes.append(msg)
    # Lamb-shift frame correction, applied at the segment boundary
    vz = {q: -J_signed * duration / 2.0 for q in active}
    seg = ScheduleSegment(model_kind=ModelKind.TC_LAB, duration_fs=duration,
                          active_electrons=tuple(active),
                          rotation_angle_rad=rotation_angle,
                          virtual_z_after=vz)
    return GateSchedule(segments=(seg,), warnings=tuple(notes))


def wstate_digital_sequence(n_qubits: int, convention: str = "arccos"
                            ) -> list[tuple[tuple[int, int], float]]:
    """Pairwise partial-iSWAP plan that equalizes single-excitation amplitudes.

    Gate k (1-based) acts on qubits (k-1, k) with XY angle
    arccos(1/sqrt(N-k+1)), so qubit k retains 1/sqrt(N-k+1) of its incoming
    amplitude.  The "arcsin" variant uses the literal arcsin angles; it does
    not reproduce the reported durations and ships for comparison only.
    """
    if n_qubits < 2:
        raise DomainError("need at least two qubits for a W sequence")
    if convention not in ("arccos", "arcsin"):
        raise DomainError(f"unknown angle convention {convention!r}")
    plan = []
    for k in range(1, n_qubits):
        x = 1.0 / math.sqrt(n_qubits - k + 1)
        angle = math.acos(x) if convention == "arccos" else math.asin(x)
        plan.append(((k - 1, k), angle))
    return plan


def wstate_tc_analog(n_qubits: int, g: float) -> GateSchedule:
    """One-shot resonant TC block: photon |1> transfers to the bright state.

    Duration pi/(2 g sqrt(N)); qubits start in |g...g>.
    """
    if n_qubits < 1:
        raise DomainError("need at least one qubit")
    if g <= 0:
        raise DomainError("need g > 0")
    duration = math.pi / (2.0 * g * math.sqrt(n_qubits))
    return GateSchedule(segments=(ScheduleSegment(
        model_kind=ModelKind.TC_LAB, duration_fs=duration),))


def apply_virtual_z(state: StateVector, phis: dict[int, float]) -> StateVector:
    """Rotate per-qubit readout frames: amplitude *= exp(-2i n_q phi_q).

    On the computational pair this is diag(e^{-i phi}, e^{+i phi}); leaked
    sidebands rotate with their ladder index.  Purely bookkeeping: populations
    are untouched and no physical time is added.
    """
    basis = state.basis
    for q in phis:
        if not 0 <= q < basis.num_electrons:
            raise BasisError(f"no electron {q} in basis")
    labels = basis.index_grids()[1]
    angle = np.ravel(sum(phi * labels[q] for q, phi in phis.items()))
    return StateVector(basis, state.amplitudes * np.exp(-2.0j * angle))


def semiclassical_unitary(schedule: GateSchedule) -> np.ndarray:
    """2x2 (e, g) unitary of the schedule in the classical-field limit.

    Each segment contributes exp(-i(theta/2)(cos(phi) sx - sin(phi) sy)) with
    theta its semiclassical rotation angle; attached virtual-Z phases enter as
    diag(e^{-i phi}, e^{+i phi}).
    """
    u = np.eye(2, dtype=np.complex128)
    for seg in schedule.segments:
        th = seg.rotation_angle_rad
        if th:
            phi = seg.drive_phase_rad
            gen = math.cos(phi) * _SX - math.sin(phi) * _SY
            w, v = np.linalg.eigh(gen)
            u = (v @ np.diag(np.exp(-0.5j * th * w)) @ v.conj().T) @ u
        for phi_z in seg.virtual_z_after.values():
            u = np.diag([np.exp(-1j * phi_z), np.exp(1j * phi_z)]) @ u
    return u


def execute(schedule: GateSchedule, initial_state: StateVector,
            params: ScenarioParams, *, model: ModelKind | None = None,
            ideal_target: np.ndarray | DensityOperator | None = None,
            config: PropagatorConfig | None = None) -> GateResult:
    """Chain the schedule's segments on one model and score the outcome.

    The state lab-evolves through each segment; relative drive phases enter
    as photon-frame rotations at segment starts and each segment's attached
    virtual-Z phases fold in at its boundary.  The accumulated free-evolution
    phases exp(+i sum_k diag(H_k) T_k / hbar) are removed before scoring, so
    fidelities compare against interaction-picture targets.  The state after
    each segment is kept in that frame as segment_states; the last one is the
    final state that score_state scores against ideal_target.  The segments'
    samples join into one trajectory over the schedule (Trajectory.then);
    zero-length segments propagate nothing and add no sample.
    """
    basis = initial_state.basis
    amps = initial_state.amplitudes.copy()
    applied_phase = 0.0
    diag_accum = np.zeros(basis.dimension)
    trajectory: Trajectory | None = None
    segment_states: list[StateVector] = []

    for seg in schedule.segments:
        dphi = seg.drive_phase_rad - applied_phase
        if dphi != 0.0:
            # rotate the photon frame: |alpha> -> |alpha e^{i dphi}>
            amps = amps * np.exp(1j * dphi * basis.index_grids()[2].ravel())
            applied_phase = seg.drive_phase_rad
        if seg.duration_fs > 0:
            kind = model if model is not None else seg.model_kind
            H = build_model(kind, params, basis, active=seg.active_electrons)
            traj = propagate(H, StateVector(basis, amps), seg.duration_fs,
                             config)
            trajectory = traj if trajectory is None else trajectory.then(traj)
            amps = traj.final_state.amplitudes
            diag_accum += H.diagonal() * seg.duration_fs
        if seg.virtual_z_after:
            amps = apply_virtual_z(StateVector(basis, amps),
                                   seg.virtual_z_after).amplitudes
        segment_states.append(StateVector(
            basis, np.exp(1j * diag_accum / _HBAR) * amps))

    final = segment_states[-1] if segment_states else StateVector(basis, amps)
    return GateResult(**vars(score_state(final, ideal_target)),
                      final_state=final, wall_time_fs=schedule.wall_time_fs,
                      trajectory=trajectory, segment_states=segment_states)


def score_state(state: StateVector,
                ideal_target: np.ndarray | DensityOperator | None = None
                ) -> StateScore:
    """Electron entropy, sideband leakage and, unless ideal_target is None,
    the fidelity of the qubit block against it (qubit_fidelity: a pure state
    vector or density operator on the (e, g)-ordered qubit block), all from
    the state vector."""
    basis = state.basis
    pops, _, entropy, _ = state_metrics(basis, state.amplitudes[None])
    return StateScore(
        None if ideal_target is None else qubit_fidelity(state, ideal_target),
        float(entropy[0]), max(float(sideband_leakage(pops, basis)[0]), 0.0))
