"""Continuous dependence on the data at the critical exponent.

Two trajectories started delta apart are compared in the composite metric

    D(t) = ||u1 - u2||^2 + ||phi1 - phi2||_*^2 + ||phi1 - phi2||^2,

where ||.||_* is the H^-1 norm of the mean-free part.  For a well-posed
flow D scales quadratically in delta (halving delta quarters D) and grows
at most exponentially along the trajectory.  The damping term only helps:
its pairing between any two velocity fields is non-negative for every
r >= 1, which is also spot-checked here.

The (beta, nu) probe reports the terminal amplification across the
beta*nu = 1 line at r = 3; the landscape is descriptive output, not an
assertion about what happens below it.
"""

import numpy as np

from chns import Grid, damping_pairing
from chns.checks import rand_vector
from chns.experiments import parse_plan, run_beta_nu_probe, run_continuous_dependence

plan = parse_plan("""
experiment.kind = continuous_dependence
continuous_dependence.delta_list = 1e-2, 5e-3, 2.5e-3
grid.n = 32
time.dt = 1e-4
time.t_final = 0.01
physics.nu = 2.0
physics.beta = 1.0
physics.r = 3
init.velocity = vortex
init.velocity_amp = 0.3
""")
rep = run_continuous_dependence(plan)
print("delta        D(0)          D(T)          D(T)/D(0)")
for row in rep.summary:
    print(f"{row['delta']:<12g} {row['D0']:<13.4e} {row['DT']:<13.4e} {row['amplification']:.4e}")
print(f"terminal ratios across delta-halvings: "
      f"{[f'{q:.3f}' for q in rep.notes['terminal_ratios']]}  (quadratic scaling -> 4)")
print(f"delta = 0 control: max D(t) = {rep.notes['zero_delta_max_D']:.1e}")

print("\ndamping pairing spot check (500 random pairs, r in {1..5}):")
grid = Grid(2, 8)
rng = np.random.default_rng(0)
worst = np.inf
for r in (1, 2, 3, 4, 5):
    for _ in range(100):
        u1, u2 = rand_vector(grid, rng), rand_vector(grid, rng)
        worst = min(worst, damping_pairing(u1, u2, float(r)))
print(f"  min pairing = {worst:.3e}  (never below -1e-12)")

print("\nbeta-nu probe at r = 3 (terminal amplification, sorted by beta*nu):")
probe = parse_plan("""
experiment.kind = beta_nu_probe
beta_nu.beta_list = 0.5, 1.0, 2.0, 2.0
beta_nu.nu_list  = 1.0, 1.0, 1.0, 2.0
beta_nu.delta = 1e-2
grid.n = 32
time.dt = 1e-4
time.t_final = 5e-3
physics.r = 3
init.velocity = vortex
""")
rep2 = run_beta_nu_probe(probe)
for row in rep2.summary:
    print(f"  beta*nu = {row['beta_nu']:<4g} (beta={row['beta']}, nu={row['nu']})  "
          f"amplification = {row['amplification']:.4e}")
