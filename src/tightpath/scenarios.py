"""Worked motor scenarios with boundary-tracking reference trajectories.

Each scenario bundles a dynamics model, a constraint field, and a feasible
reference pair built by integrating a tracking control that rides a target
path just outside the unit ball. The references hug the boundary with a
small configurable clearance so that tightening the constraint makes them
infeasible and the repair pipeline has real work to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .dynamics import DynamicsModel, motor_decline, motor_surge
from .errors import ConfigError, DomainError, config_number
from .geometry import ConstraintField, unit_ball_complement
from .propagation import integrate, integrate_feedback
from .signals import ControlSignal, TimeGrid, Trajectory

_VARIANTS = ("surge", "decline")

# Tracking gain and the hard cap on the reference control magnitude. The
# cap stays well below each motor's certified control bound so the repair
# search has headroom for inward bursts.
_FEEDBACK_GAIN = 4.0
_CONTROL_CAP = 0.45


@dataclass(frozen=True)
class Scenario:
    """A model, a constraint field, and a feasible reference pair."""

    name: str
    model: DynamicsModel
    field: ConstraintField
    grid: TimeGrid
    x0: np.ndarray
    xbar: Trajectory
    ubar: ControlSignal
    clearance: float
    config: dict = dataclass_field(repr=False, default_factory=dict)


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def _smoothstep_rate(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 6.0 * s * (1.0 - s), 0.0)


def _target_path(t, start: float, graze: float, finish: float):
    """Piecewise C^1 target: descend to the graze level, hold, climb back."""
    t = np.asarray(t, dtype=float)
    level = np.full(t.shape, start)
    rate = np.zeros(t.shape)

    s = (t - 0.2) / 0.55
    level = np.where(t >= 0.2, start + (graze - start) * _smoothstep(s), level)
    rate = np.where(t >= 0.2, (graze - start) * _smoothstep_rate(s) / 0.55, rate)

    s = (t - 1.3) / 0.55
    level = np.where(t >= 1.3, graze + (finish - graze) * _smoothstep(s), level)
    rate = np.where(t >= 1.3, (finish - graze) * _smoothstep_rate(s) / 0.55, rate)
    return level, rate


def _surge_gain_mean(a: float, b: float) -> float:
    """Mean of the surge input gain over a cell [a, b]."""
    if b <= 1.0:
        return 1.0
    # Integral of (s - 1)^(-1/4) from max(a, 1) to b is closed form.
    tail = (4.0 / 3.0) * (b - 1.0) ** 0.75
    if a >= 1.0:
        tail -= (4.0 / 3.0) * (a - 1.0) ** 0.75
        return tail / (b - a)
    return ((1.0 - a) + tail) / (b - a)


def _decline_decay_mean(a: float, b: float) -> float:
    """Mean of the decline actuator decay over a cell [a, b]."""
    if b <= 1.0:
        return 1.0
    # Integral of 1 - 0.5 sqrt(s - 1) from max(a, 1) to b is closed form.
    upper = (b - 1.0) - (1.0 / 3.0) * (b - 1.0) ** 1.5
    if a >= 1.0:
        upper -= (a - 1.0) - (1.0 / 3.0) * (a - 1.0) ** 1.5
        return upper / (b - a)
    return ((1.0 - a) + upper) / (b - a)


def boundary_tracking_reference(
    model: DynamicsModel,
    field: ConstraintField,
    grid: TimeGrid,
    x0,
    clearance: float = 5e-4,
    finish: float = 1.06,
    variant: str = "surge",
    drift_amplitude: float = 0.2,
) -> tuple[Trajectory, ControlSignal]:
    """Build a reference that tracks the constraint boundary from outside.

    A feedback-inverted control steers the scalar motor state along a
    target path that descends from ``x0`` to ``1 + clearance``, holds that
    graze level across the actuator breakpoint, then climbs to ``finish``.
    The inversion cancels the motor's drift ``drift_amplitude * cos(x)``
    and uses the exact cell mean of the actuator scale so tracking stays
    tight through the power surge and decay. The returned trajectory is
    re-integrated with the production integrator and checked to be
    feasible (but only barely) for the untightened constraint.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (1,):
        raise DomainError("boundary tracking references are scalar")
    if clearance < 0.0:
        raise DomainError("clearance must be nonnegative")

    nodes = grid.nodes
    graze = 1.0 + clearance
    level, rate = _target_path(nodes, float(x0[0]), graze, finish)

    def law(j, x):
        a, b = float(nodes[j]), float(nodes[j + 1])
        demand = float(rate[j]) + _FEEDBACK_GAIN * (float(level[j]) - float(x[0]))
        demand -= drift_amplitude * float(np.cos(x[0]))
        if variant == "surge":
            u = demand / _surge_gain_mean(a, b)
        else:
            arg = demand / _decline_decay_mean(a, b)
            u = float(np.tan(np.clip(arg, -1.3, 1.3)))
        return np.array([float(np.clip(u, -_CONTROL_CAP, _CONTROL_CAP))])

    _, cells = integrate_feedback(model, grid, x0, law)
    controls = np.vstack([cells, cells[-1:]])

    ubar = ControlSignal(grid=grid, values=controls)
    xbar = integrate(model, ubar, x0, (float(nodes[0]), float(nodes[-1])), grid.step)
    margins = field.margin(float(nodes[0]), xbar.states, 0.0)
    worst = float(np.min(margins))
    if worst < 0.4 * clearance:
        raise DomainError(
            f"tracking reference dips to margin {worst:.3e}; "
            "raise the clearance or soften the target path"
        )
    return xbar, ubar


def motor_scenario(
    variant: str,
    clearance: float = 5e-4,
    steps: int = 2000,
    horizon: float = 2.0,
    x_start: float = 1.08,
    finish: float = 1.06,
    drift_amplitude: float = 0.2,
) -> Scenario:
    """Assemble a ready-to-repair motor scenario.

    ``variant`` picks the dynamics: ``"surge"`` is the control-affine motor
    whose input gain spikes after t = 1, ``"decline"`` is the saturating
    arctan motor whose actuator decays. Both ride the complement of the
    unit ball at the given clearance, under the state drift
    ``drift_amplitude * cos(x)``.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    if steps < 2:
        raise DomainError("need at least two grid steps")
    model = (motor_surge if variant == "surge" else motor_decline)(drift_amplitude)
    field = unit_ball_complement(dim=1, box_radius=2.0)
    grid = TimeGrid.uniform(0.0, horizon, steps)
    x0 = np.array([x_start])
    xbar, ubar = boundary_tracking_reference(
        model, field, grid, x0, clearance=clearance, finish=finish, variant=variant,
        drift_amplitude=drift_amplitude,
    )
    config = {
        "model": f"motor_{variant}",
        "constraint": {"builtin": "unit_ball_complement", "dim": 1, "box_radius": 2.0},
        "reference": {
            "kind": "boundary-tracking",
            "variant": variant,
            "clearance": clearance,
            "x_start": x_start,
            "finish": finish,
        },
        "horizon": horizon,
        "steps": steps,
        "drift_amplitude": drift_amplitude,
    }
    return Scenario(
        name=f"motor-{variant}",
        model=model,
        field=field,
        grid=grid,
        x0=x0,
        xbar=xbar,
        ubar=ubar,
        clearance=clearance,
        config=config,
    )


def scenario_from_config(config: dict) -> Scenario:
    """Rebuild a scenario from a config mapping (the CLI entry path)."""
    try:
        reference = config["reference"]
    except KeyError:
        raise ConfigError("scenario config needs a 'reference' table") from None
    kind = reference.get("kind", "boundary-tracking")
    if kind != "boundary-tracking":
        raise ConfigError(f"unknown reference kind {kind!r}")
    variant = reference.get("variant")
    if variant not in _VARIANTS:
        raise ConfigError("reference variant must be 'surge' or 'decline'")
    scenario = motor_scenario(
        variant,
        clearance=config_number(reference, "clearance", 5e-4, float),
        steps=config_number(config, "steps", 2000, int),
        horizon=config_number(config, "horizon", 2.0, float),
        x_start=config_number(reference, "x_start", 1.08, float),
        finish=config_number(reference, "finish", 1.06, float),
        drift_amplitude=config_number(config, "drift_amplitude", 0.2, float),
    )
    # The reference is integrated against the variant's own dynamics, so a
    # config that names a different model or constraint is inconsistent.
    if "model" in config and config["model"] != scenario.config["model"]:
        raise ConfigError(
            f"model {config['model']!r} does not match reference variant {variant!r}"
        )
    if "constraint" in config and config["constraint"] != scenario.config["constraint"]:
        raise ConfigError("constraint table does not match the built-in scenario field")
    return scenario
