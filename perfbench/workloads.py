"""The four benchmark workloads: scenario configs plus the formulas that
the independent checker needs for each.

All use lambda = 0.1 on the horizon [0, 2]. The grid sizes, lattice
resolutions and round plans keep one run of a workload between about 25
and 40 seconds on a 2-core machine; README.md records why each was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checker

LAMBDA = 0.1
HORIZON = 2.0

DISK = "1 - sqrt(x1*x1 + x2*x2)"
MOVING_DISK = "1 - sqrt((x1 - 0.1*t)**2 + x2**2)"


@dataclass(frozen=True)
class Workload:
    """A scenario config, its checker formulas, and how the seed enters.

    ``seeded`` workloads pass ``--seed`` to ``tightpath certify``. On the
    others the sampled certificate, the work it causes and the repaired
    margin all change with the certifier seed, so they certify with seed 0
    and every run does the same work.

    ``plan`` is the command sequence of one round: ``c`` is a certify and
    ``r`` a repair from the latest bundle. Commands are repeated so that
    each timed figure covers about 10 seconds of work or more.
    """

    name: str
    config: dict
    system: checker.System
    seeded: bool
    plan: str

    def certifier_seed(self, seed: int) -> int:
        return seed if self.seeded else 0


def _motor(variant: str, steps: int) -> dict:
    return {
        "model": f"motor_{variant}",
        "constraint": {"builtin": "unit_ball_complement", "dim": 1, "box_radius": 2.0},
        "reference": {
            "kind": "boundary-tracking",
            "variant": variant,
            "clearance": 0.0005,
            "x_start": 1.08,
            "finish": 1.06,
        },
        "horizon": HORIZON,
        "steps": steps,
        "lambda": LAMBDA,
    }


def _disk(component: str, steps: int, resolution: float, time_varying: bool) -> dict:
    """2-D single integrator on the grazing line x = (-1.5 + 1.5 t, 1.0005)."""
    times = np.linspace(0.0, HORIZON, steps + 1)
    return {
        "model": "expression",
        "state_dim": 2,
        "control_dim": 2,
        "rhs": ["u1", "u2"],
        "constraint": {
            "box": [[-2.0, 2.0], [-2.0, 2.0]],
            "components": [component],
            "time_varying": time_varying,
            "resolution": resolution,
        },
        "reference": {
            "kind": "inline",
            "times": times.tolist(),
            "states": [[-1.5 + 1.5 * t, 1.0005] for t in times.tolist()],
            "controls": [[1.5, 0.0]] * times.size,
        },
        "lambda": LAMBDA,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "surge-fine",
            _motor("surge", 4000),
            checker.System(checker.surge_rhs, breakpoints=(1.0,)),
            seeded=True,
            plan="crcr",
        ),
        Workload(
            "decline",
            _motor("decline", 2000),
            checker.System(checker.decline_rhs, breakpoints=(1.0,)),
            seeded=True,
            plan="crcrcr",
        ),
        Workload(
            "disk-lattice",
            _disk(DISK, 200, 0.0075, time_varying=False),
            checker.System(checker.single_integrator_rhs),
            seeded=False,
            plan="c" + "r" * 12,
        ),
        Workload(
            "moving-disk",
            _disk(MOVING_DISK, 60, 0.025, time_varying=True),
            checker.System(checker.single_integrator_rhs, centre_speed=0.1),
            seeded=False,
            plan=("c" + "r" * 8) * 2,
        ),
    )
}
