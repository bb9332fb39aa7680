"""Finite-time energy-shaping control of bilateral teleoperation systems.

Simulation library and CLI for a family of continuous proportional-plus-
damping controllers (C1-C4) that synchronize two Euler-Lagrange
manipulators: state- and output-feedback variants, bounded (saturation-
avoiding) versions of both, fixed-step closed-loop simulation, energy and
passivity monitors, and a numerical audit of the weighted-homogeneity
structure that underpins finite-time convergence.
"""

from .closed_loop_sim import (
    EnergyAudit,
    ForceProfile,
    PassivityLedger,
    Scenario,
    SimTrace,
    SimulationUnstableError,
    TeleopState,
    convergence_time,
    energy_audit,
    passivity_ledger,
    rk4_step,
    run,
    run_batch,
    state_bounds_from_energy,
    step,
)
from .controllers import (
    ControlAction,
    ControllerConfig,
    ControllerState,
    SaturationReport,
    control_action,
    dissipation_rate,
    shaped_potential,
    validate_saturation,
)
from .homogeneity_audit import (
    HomogeneitySpec,
    check_degree,
    fitted_decay_slope,
    full_field,
    homogeneous_field,
    sphere_points,
    stacked_weights,
    vanishing_sweep,
)
from .robot_dynamics import (
    DerivedBounds,
    RobotParams,
    RobotState,
    SingularInertiaError,
    coriolis_matrix,
    derive_bounds,
    energies,
    forward_dynamics,
    gravity_vector,
    mass_matrix,
    potential_energy,
)
from .scalar_ops import Weights, dilate, s_integral, sat_clip, sat_pow, signed_pow
from .scenario import (
    ScenarioError,
    bundled_scenario_names,
    dump_scenario,
    load_scenario,
    parse_scenario,
    read_bundled_scenario,
    with_weights,
)

__version__ = "0.1.0"
