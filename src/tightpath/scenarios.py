"""Worked motor scenarios with boundary-tracking reference trajectories.

Each scenario bundles a dynamics model, a constraint field, and a feasible
reference pair built by integrating a tracking control that rides a target
path just outside the unit ball. The references hug the boundary with a
small configurable clearance so that tightening the constraint makes them
infeasible and the repair pipeline has real work to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsModel, motor_decline, motor_surge
from .errors import FINITE, ConfigError, DomainError, config_number
from .geometry import ConstraintField, field_from_config
from .propagation import integrate, integrate_feedback
from .signals import ControlSignal, TimeGrid, Trajectory

_VARIANTS = ("surge", "decline")
# Every motor scenario's constraint table: its field, and the only one a config may name.
_CONSTRAINT = {"builtin": "unit_ball_complement", "dim": 1, "box_radius": 2.0}
# Largest grid a config may ask for, checked before the grid's nodes are
# allocated: 2**20 steps, few enough that linspace's rounding stays inside
# TimeGrid's relative step tolerance. Longest horizon: far past the
# motors' break at t = 1, and short enough that the reference's
# closed-form actuator integrals and target path stay finite.
_MAX_STEPS = 1 << 20
_MAX_HORIZON = 1e6

# Tracking gain and the hard cap on the reference control magnitude. The
# cap stays well below each motor's certified control bound so the repair
# search has headroom for inward bursts.
_FEEDBACK_GAIN = 4.0
_CONTROL_CAP = 0.45


@dataclass(frozen=True)
class Scenario:
    """A model, a constraint field, and a feasible reference pair."""

    model: DynamicsModel
    field: ConstraintField
    xbar: Trajectory
    ubar: ControlSignal


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


# Antiderivative over [brk, brk + d] of each motor's actuator scale past its
# break time brk, where the scale is 1 up to brk: the surge gain
# (s - brk)^(-1/4) and the decline decay 1 - 0.5 sqrt(s - brk).
_SCALE_INTEGRALS = {
    "surge": lambda d: (4.0 / 3.0) * d**0.75,
    "decline": lambda d: d - (1.0 / 3.0) * d**1.5,
}


def _cell_mean(variant: str, brk: float, a: float, b: float) -> float:
    """Mean of the variant's actuator scale over a cell [a, b]."""
    if b <= brk:
        return 1.0
    integral = _SCALE_INTEGRALS[variant]
    tail = integral(b - brk)
    if a >= brk:
        tail -= integral(a - brk)
        return tail / (b - a)
    return ((brk - a) + tail) / (b - a)


def boundary_tracking_reference(
    model: DynamicsModel,
    field: ConstraintField,
    grid: TimeGrid,
    x0,
    clearance: float,
    finish: float,
    variant: str,
    drift_amplitude: float,
) -> tuple[Trajectory, ControlSignal]:
    """Build a reference that tracks the constraint boundary from outside.

    A feedback-inverted control steers the scalar motor state along a
    target path that descends from ``x0`` to ``1 + clearance``, holds that
    graze level across the actuator breakpoint, then climbs to ``finish``.
    The inversion cancels the motor's drift ``drift_amplitude * cos(x)``
    and uses the exact cell mean of the actuator scale, which switches at
    the model's one time breakpoint, so tracking stays tight through the
    power surge and decay. The returned trajectory is re-integrated with
    the production integrator and checked to be feasible (but only
    barely) for the untightened constraint.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (1,):
        raise DomainError("boundary tracking references are scalar")
    if clearance < 0.0:
        raise DomainError("clearance must be nonnegative")
    if len(model.time_breakpoints) != 1:
        raise DomainError("boundary tracking needs a motor model with one time breakpoint")

    (brk,) = model.time_breakpoints
    graze = 1.0 + clearance
    level, rate = (a.tolist() for a in _target_path(grid.nodes, float(x0[0]), graze, finish))
    nodes = grid.nodes.tolist()

    # On floats: math.cos is numpy's (the C library's), min/max clip as np.clip, NaN too.
    def law(j, x):
        x = float(x[0])
        demand = rate[j] + _FEEDBACK_GAIN * (level[j] - x) - drift_amplitude * math.cos(x)
        demand /= _cell_mean(variant, brk, nodes[j], nodes[j + 1])
        u = demand if variant == "surge" else float(np.tan(min(max(demand, -1.3), 1.3)))
        return np.array([min(max(u, -_CONTROL_CAP), _CONTROL_CAP)])

    _, cells = integrate_feedback(model, grid, x0, law)
    controls = np.vstack([cells, cells[-1:]])

    ubar = ControlSignal(grid=grid, values=controls)
    run = integrate(model, ubar, x0, (nodes[0], nodes[-1]), grid.step)
    xbar = Trajectory(grid, run.at_nodes(grid.nodes))
    margins = field.margin(nodes[0], xbar.states, 0.0)
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
    field = field_from_config(_CONSTRAINT)
    grid = TimeGrid.uniform(0.0, horizon, steps)
    xbar, ubar = boundary_tracking_reference(
        model, field, grid, np.array([x_start]), clearance=clearance, finish=finish,
        variant=variant, drift_amplitude=drift_amplitude,
    )
    return Scenario(model=model, field=field, xbar=xbar, ubar=ubar)


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
    # Only the keys the config sets: motor_scenario holds the defaults.
    horizon = (f"positive and at most {_MAX_HORIZON:g}", lambda v: 0 < v <= _MAX_HORIZON)
    keys = (
        (reference, "clearance", float, ("a finite number >= 0", lambda v: 0 <= v < math.inf)),
        (reference, "x_start", float, FINITE),
        (reference, "finish", float, FINITE),
        (config, "steps", int, (f"from 2 to {_MAX_STEPS}", lambda v: 2 <= v <= _MAX_STEPS)),
        (config, "horizon", float, horizon),
        (config, "drift_amplitude", float, FINITE),
    )
    settings = {k: config_number(t, k, None, kind, rule) for t, k, kind, rule in keys if k in t}
    # The reference is integrated against the variant's own dynamics, so a
    # config that names a different model or constraint is inconsistent.
    if "model" in config and config["model"] != f"motor_{variant}":
        raise ConfigError(
            f"model {config['model']!r} does not match reference variant {variant!r}"
        )
    if "constraint" in config and config["constraint"] != _CONSTRAINT:
        raise ConfigError("constraint table does not match the built-in scenario field")
    return motor_scenario(variant, **settings)
