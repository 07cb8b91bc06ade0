"""A coupled run and its conservation ledger.

Noisy order parameter, a projected vortex pair, quartic double well,
unit mobility, absorption exponent r = 3.  The per-step ledger certifies
the three structural invariants the scheme is built around:

* the mean of phi is conserved to roundoff (wall fluxes vanish and the
  implicit solve is mean-pinned),
* total energy (kinetic + interfacial + bulk) never increases without
  external forcing,
* the velocity stays discretely divergence-free.

Writes diagnostics.csv and two SVG charts next to this script's out/.
"""

import os

from chns import (
    Grid,
    Simulation,
    SolverParams,
    constant_mobility,
    initial_state,
    regular_potential,
)
from chns.checks import ledger_div_max, ledger_energy_rise, ledger_mass_drift
from chns.svg import write_chart

out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(out_dir, exist_ok=True)

grid = Grid(2, 64)
pot = regular_potential()
mob = constant_mobility()
params = SolverParams(nu=1.0, beta=1.0, r=3.0, dt=1e-4, t_final=0.05)
state = initial_state(grid, phi_mean=0.0, noise_amp=0.05, seed=11,
                      velocity="vortex", velocity_amp=0.2)
sim = Simulation(grid, params, pot, mob, state)

print("stepping 500 times at dt = 1e-4 ...")
sim.run(n_steps=500)
recs = sim.ledger.records

e = [r.energy for r in recs]
print(f"mass drift        : {ledger_mass_drift(sim.ledger):.2e}")
print(f"worst dE per step : {ledger_energy_rise(sim.ledger):.2e}  (E0 = {e[0]:.3f})")
print(f"max |div u|       : {ledger_div_max(sim.ledger):.2e}")
print(f"final energy      : {e[-1]:.6f}")

csv_path = os.path.join(out_dir, "decay_diagnostics.csv")
with open(csv_path, "w") as fh:
    from chns import CSV_COLUMNS
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for rec in recs:
        fh.write(rec.to_csv_row() + "\n")
print(f"wrote {csv_path}")

t = [r.t for r in recs]
write_chart(os.path.join(out_dir, "decay_energy.svg"), "energy decay", "t", "energy",
            [(t, e, "total"),
             (t, [r.kinetic for r in recs], "kinetic"),
             (t, [r.bulk for r in recs], "bulk")])
write_chart(os.path.join(out_dir, "decay_dissipation.svg"), "dissipation channels", "t",
            "rate",
            [(t, [r.visc_diss for r in recs], "viscous"),
             (t, [r.damp_diss for r in recs], "damping"),
             (t, [r.mob_diss for r in recs], "mobility")])
print(f"wrote charts under {out_dir}")
