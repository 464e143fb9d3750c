"""
What certification refuses
==========================

The synthesis is only sound for dynamics with at most linear growth in
the control.  A model with a quadratic control term can pass the
geometric checks, since u*u still pushes the state inward here, yet it
must be rejected before any schedule is built.  This script constructs
such a model from right-hand-side expressions and shows the certifier
catching it, witness attached.
"""

import numpy as np

import tightpath as tp

# x' = u^2 on the half line x >= 1.  Inward pointing holds trivially:
# any control with u^2 > 0 moves away from the boundary at x = 1.
model = tp.expression_model(["u1*u1"], state_dim=1, control_dim=1)
field = tp.field_from_config({"box": [[0.0, 3.0]], "components": ["1 - x1"]})

grid = tp.TimeGrid.uniform(0.0, 1.0, 64)
xbar = tp.Trajectory(grid, np.full((65, 1), 1.2))
ubar = tp.ControlSignal(grid, np.zeros((65, 1)))

try:
    tp.certify_all(model, field, ubar, xbar, seed=0)
except tp.CertificationError as exc:
    print(f"rejected: {exc}")
    for key, value in exc.witness.items():
        print(f"  witness {key} = {value:.6g}")
else:
    raise AssertionError("a quadratic control term must not certify")

# The same expressions with the square removed describe an admissible
# model, and the full pipeline goes through.
linear = tp.expression_model(["u1"], state_dim=1, control_dim=1)
bundle = tp.certify_all(linear, field, ubar, xbar, seed=0)
x_eps, u_eps, c, report = tp.repair(xbar, ubar, 0.2, bundle, field, linear)
print(f"\nlinear variant certifies and repairs: eps = {c.eps}, "
      f"margin = {report.interiority_margin:.6g}")
