"""Synthesis of strictly interior trajectories under tightened constraints.

The package exports what README's quick start and the demos call, the two
classes a custom model is built from, and every exception. Everything else
is imported from its module, for example ``tightpath.propagation.integrate``.
"""

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
from .dynamics import DeclaredRegularity, DynamicsModel, expression_model
from .geometry import field_from_config
from .hypotheses import bundle_from_dict, bundle_to_dict, certify_all, load_bundle, save_bundle
from .repair import render_report, repair
from .scenarios import motor_scenario
from .signals import ControlSignal, TimeGrid, Trajectory, linf_distance, save_csv

__version__ = "0.1.0"
