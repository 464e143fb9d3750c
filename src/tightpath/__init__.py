"""Synthesis of strictly interior trajectories under tightened constraints."""

from .errors import (
    AccuracyError,
    BundleError,
    CertificationError,
    ConfigError,
    DomainError,
    ExpressionError,
    InfeasibleTighteningError,
    IntervalRepairError,
    InwardPointingError,
    ModelEvaluationError,
    PropagationError,
    RepairError,
    ScheduleError,
    SelectionError,
    ShapeError,
    TightpathError,
)
from .dynamics import (
    DeclaredRegularity,
    DynamicsModel,
    control_affine,
    drift_budget,
    eval_rhs,
    expression_model,
    model_from_config,
    motor_decline,
    motor_surge,
    rhs_batch,
    shift_selection,
)
from .expr import compile_expressions
from .geometry import (
    ConstraintField,
    boundary_points,
    build_boundary_modulus,
    field_from_config,
    node_violations,
    unit_ball_complement,
    violation_sup,
)
from .hypotheses import (
    HypothesisBundle,
    OperatingBox,
    SampledFunction,
    best_inward_candidate,
    bundle_from_dict,
    bundle_to_dict,
    certify_all,
    certify_inward_pointing,
    certify_lipschitz,
    certify_sublinear,
    certify_time_regularity,
    inclusion_margins,
    load_bundle,
    save_bundle,
)
from .propagation import (
    gronwall_radius,
    integrate,
    integrate_feedback,
)
from .repair import (
    IterationRecord,
    RepairConstants,
    RepairReport,
    growth_maps,
    inward_control_at,
    render_report,
    repair,
    repair_interval,
    schedule_constants,
)
from .scenarios import (
    Scenario,
    boundary_tracking_reference,
    motor_scenario,
    scenario_from_config,
)
from .signals import (
    ControlSignal,
    ModulusTable,
    TimeGrid,
    Trajectory,
    build_modulus_table,
    linf_distance,
    load_control,
    load_trajectory,
    save_csv,
    weighted_l2_cost,
)

__version__ = "0.1.0"
