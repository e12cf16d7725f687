"""feqo-lab: fully quantized free-electron quantum optics at desk scale.

Momentum-sideband qubits on a grating near field: parameter pipeline,
truncated sideband x Fock Hilbert space, quantized Hamiltonians, exact and
fixed-step propagation, single/two-qubit gate schedules, W-state protocols,
collapse/revival analytics, and Smith-Purcell phase matching.
"""

from .errors import (BasisError, DomainError, FeqoLabError, GratingError,
                     PropagationError, TruncationError)
from .physpar import (CODATA2018, Constants, DerivedCoupling, DriveParams,
                      ElectronParams, ModeQuantization, ScenarioParams,
                      classical_grating_period, coupling_constant,
                      derive_electron, ev_to_rad_per_fs, make_scenario,
                      quantization_volume, quantum_grating_period,
                      rad_per_fs_to_ev, sideband_energy,
                      single_photon_amplitude, transition_detuning,
                      wavelength_nm)
from .hilbert import (BasisSpec, DensityOperator, StateVector, basis_ket,
                      coherent_state, computational_block, default_fock_cutoff,
                      default_window, fock_ket, make_basis, partial_trace,
                      photon_number_mean, pure_target_fidelity, purity,
                      qubit_factor, qubit_window, schmidt_entropy,
                      sideband_populations, tensor_product, uhlmann_fidelity,
                      von_neumann_entropy)
from .hamiltonian import (HermitianOperator, ModelKind, build_dispersive_xy,
                          build_jc, build_jc_interaction, build_model,
                          build_pinem, build_tc, excitation_observable)
from .propagate import (EIGEN_ORACLE, FIXED_STEP, PropagatorConfig, Trajectory,
                        propagate, propagate_eigen)
from .gates import (GateResult, GateSchedule, ScheduleSegment, apply_virtual_z,
                    execute, schedule_iswap, schedule_partial_iswap,
                    schedule_rx, schedule_ry, schedule_rz_composite,
                    score_state, semiclassical_unitary,
                    wstate_digital_sequence, wstate_tc_analog)
from .analytics import (CollapseRevivalPrediction, RegimeReport,
                        classify_regime, collapse_revival_times,
                        leakage_fraction, pe_envelope, pe_exact_sum)

__version__ = "0.1.0"
