"""
Anatomy of a certified hypothesis bundle
========================================

Everything the synthesis consumes is measured up front and frozen in
a bundle: sampled rate functions, scalar slacks, a boundary drift
modulus, and a provenance tag per hypothesis saying whether the value
was confirmed by sampling or merely declared by the model.  This
script certifies the declining-load motor and walks through the
result, then shows the bundle surviving a save and load round trip.
"""

import numpy as np

import tightpath as tp

scenario = tp.motor_scenario("decline", steps=1000)
bundle = tp.certify_all(scenario.model, scenario.field, scenario.ubar,
                        scenario.xbar, seed=0)

# Sampled rate functions live on the reference grid.  The growth
# envelope bounds |f| along the tube; the state Lipschitz rate bounds
# the spatial sensitivity.
for label, fn in (("growth envelope", bundle.growth_envelope),
                  ("state lipschitz", bundle.state_lipschitz),
                  ("time drift", bundle.time_drift)):
    vals = fn.values
    print(f"{label:>16s}: sup {vals.max():.6g} at t = {fn.grid.nodes[vals.argmax()]:.4f}")

# Scalars.  inward_slack is the certified decrease rate available at
# the boundary collar; collar_width is where that rate was probed.
print(f"{'control bound':>16s}: {bundle.control_bound:.6g}")
print(f"{'velocity bound':>16s}: {bundle.velocity_bound:.6g}")
print(f"{'inward slack':>16s}: {bundle.inward_slack:.6g}")
print(f"{'collar width':>16s}: {bundle.collar_width:.6g}")

# The declining load has an integrable singularity at t = 1.  It
# lives in the time drift (note the spike above), not in the control
# gain, so the gain exponent stays at its regular value of one.
print(f"{'holder exponent':>16s}: {bundle.holder_exponent}")

# The drift modulus is a lookup table; a width between nodes reads the
# value at the next tabulated width up, so a lookup never understates
# the table, and widths past the last node are clamped.
table = bundle.boundary_drift
print(f"{'boundary drift':>16s}: {len(table.deltas)} nodes, "
      f"omega({table.deltas[-1]:.3g}) = {table.value_at(table.deltas[-1]):.6g}")

print()
for name, status in sorted(bundle.provenance.items()):
    print(f"  {name:>18s}: {status}")

# Round trip.  Serialization is plain JSON with every float written
# exactly; reload and compare field by field.
tp.save_bundle("decline_bundle.json", bundle)
loaded = tp.load_bundle("decline_bundle.json")
assert np.array_equal(loaded.growth_envelope.values, bundle.growth_envelope.values)
assert loaded.control_bound == bundle.control_bound
assert loaded.provenance == bundle.provenance
tp.validate_bundle(loaded, reference_sup=float(np.abs(scenario.xbar.states).max()))
print("\nround trip exact, bundle validates")
