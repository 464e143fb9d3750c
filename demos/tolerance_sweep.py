"""
How the tightening shrinks with the tolerance
=============================================

The synthesis halves the tightening eps from its certified cap and
keeps the first halving that yields an interior profile within the
requested tolerance lam.  Sweeping lam
downward shows the trade directly: tighter tolerances force smaller
eps, smaller corrections, and thinner margins, but the contract holds
at every level.
"""

import tightpath as tp

scenario = tp.motor_scenario("surge", steps=1000)
bundle = tp.certify_all(scenario.model, scenario.field, scenario.ubar,
                        scenario.xbar, seed=0)

# One certification serves every tolerance; only the schedule depends
# on lam.
print(f"{'lam':>6s} {'eps':>9s} {'margin':>11s} {'sup gap':>11s} {'cost gap':>11s}")
rows = []
for lam in (0.4, 0.2, 0.1, 0.05):
    x_eps, u_eps, c, report = tp.repair(
        scenario.xbar, scenario.ubar, lam, bundle, scenario.field, scenario.model)
    rows.append((lam, c.eps))
    print(f"{lam:>6.2f} {c.eps:>9.5f} {report.interiority_margin:>11.3e} "
          f"{report.final_linf_gap:>11.3e} {abs(report.final_cost_gap):>11.3e}")

# eps never grows as lam shrinks: a stricter closeness demand can only
# reduce how far the profile may be pushed inward.
for (_, wide), (_, tight) in zip(rows, rows[1:]):
    assert tight <= wide
print("eps is nonincreasing across the sweep")
