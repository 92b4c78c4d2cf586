"""Pulse design and Schrodinger dynamics for adiabatic transfer into degenerate manifolds.

The package splits into five parts: :mod:`~stirapkit.model` (system, field
set, Gaussian envelopes, dressed Hamiltonian), :mod:`~stirapkit.nullspace`
(closed-form and SVD dark states as labelled state vectors, null-frame
tracking, converged peak nonadiabatic coupling), :mod:`~stirapkit.design`
(feasibility, phase-matched fields, verification),
:mod:`~stirapkit.propagation` (time integration and population bookkeeping)
and :mod:`~stirapkit.scenarios` (reproducible runs and parameter sweeps, the
width ladder among them, also exposed through the ``stirapkit`` command
line)."""

from .model import (FieldSet, StateVector, SystemSpec, coupling_blocks,
                    ground_state, hamiltonian, pump_envelope, stokes_envelope)
from .design import (DesignError, DesignReport, TargetSpec, VerifyResult,
                     check_feasibility, design_fields, effective_dipoles,
                     matched_pump_rabi, verify_design)
from .nullspace import (NullVector, NullVectorLabel, TrackingLost,
                        analytic_lambda1, analytic_pair_tracks,
                        cofactor_matrix, converged_max_coupling,
                        make_null_vector, numeric_null_space,
                        phase_aligned_distance, track_null_frame)
from .propagation import (PropagationConfig, PropagationError, Trajectory,
                          populations, propagate)
from .scenarios import (Bounds, DesignRequest, RunRecord, Scenario,
                        ScenarioError, SweepEntry, builtin_names,
                        builtin_scenario, config_hash, load_scenario, run,
                        scenario_to_dict, sweep, write_trajectory_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "SystemSpec", "FieldSet", "StateVector", "ground_state", "pump_envelope",
    "stokes_envelope", "coupling_blocks", "hamiltonian",
    # design
    "DesignError", "TargetSpec", "DesignReport", "VerifyResult",
    "effective_dipoles", "check_feasibility", "design_fields",
    "matched_pump_rabi", "verify_design",
    # nullspace
    "NullVector", "NullVectorLabel", "TrackingLost", "make_null_vector",
    "cofactor_matrix", "numeric_null_space", "analytic_lambda1",
    "track_null_frame", "analytic_pair_tracks", "converged_max_coupling",
    "phase_aligned_distance",
    # propagation
    "PropagationError", "PropagationConfig", "Trajectory", "propagate",
    "populations",
    # scenarios
    "ScenarioError", "Scenario", "DesignRequest", "Bounds", "RunRecord",
    "SweepEntry", "builtin_scenario", "builtin_names", "load_scenario",
    "scenario_to_dict", "config_hash", "run", "sweep",
    "write_trajectory_csv",
]
