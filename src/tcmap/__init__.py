"""Iterated two-atom cavity postselection: exact dynamics, the induced
quadratic rational map on the Riemann sphere, and the state-discrimination
experiments built on both."""

from .sphere import INFINITY, as_point, chordal_distance, is_infinite
from .rational_map import (
    CycleReport,
    DegenerateParameterError,
    MapParams,
    NotACycleError,
    PoleError,
    apply_map,
    apply_map_grid,
    attractive_cycle_batch,
    classify_multiplier,
    critical_points,
    cycle_multiplier,
    find_attractive_cycles,
    inverse_branches,
    is_degenerate,
    julia_backward_sample,
    map_derivative,
    quadratic_step,
    two_cycle,
)
from .tavis_cummings import (
    ApproxChannels,
    ApproximationValidityWarning,
    AtomPairState,
    CoherentFieldSpec,
    JointState,
    TruncationError,
    coherent_approx_fields,
    coherent_state_coefficients,
    default_truncation,
    evolve_exact,
    f_state_lo_phases,
    homodyne_density,
    ideal_postselection_operator,
    poisson_amplitudes,
    poisson_tail_mass,
    quadrature_mean,
)
from .protocol import (
    ExactStepOperator,
    default_interaction_time,
    exact_step_operator,
    gate_unitary,
    read_step_operator,
    write_step_operator,
)
from .experiments import (
    BasinGrid,
    DiscriminationReport,
    ResourceEstimate,
    StabilityRow,
    basin_grid,
    discrimination_run,
    fixed_point_multiplier_moduli,
    grid_points,
    overlap,
    phi_sweep,
    resource_estimate,
)
from .output import ImageBuffer, point_cloud_image, read_ppm, render_basin_image, write_csv, write_ppm

__version__ = "0.1.0"
