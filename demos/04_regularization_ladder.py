"""The clamp-parameter ladder for singular potential / degenerate mobility.

The logarithmic well lives on (-1, 1) and the quadratic-family mobility
m(s) = (1 - s^2)^n vanishes at the pure phases, so the solver never touches
either directly.  Instead both are regularized with a clamp width eps:

* the singular part of the potential is extended quadratically beyond
  |s| = 1 - eps (matching value/slope, second derivative clamped) and
  always sits BELOW the original on (-1, 1);
* the mobility is frozen at its |s| = 1 - eps values, giving a positive
  lower bound m_eps >= m(1 - eps);
* the entropy function G'' = 1/m_eps grows a quadratic barrier whose
  strength diverges as eps -> 0, which is what pins |phi| <= 1 in the
  limit.

The sweep below shows sup|m_eps - m| -> 0 and the entropy functional of a
short run staying bounded while eps shrinks.
"""

import numpy as np

from chns import (
    EntropyFunction,
    degenerate_mobility,
    logarithmic_potential,
    mobility_value,
    regularize_mobility,
    regularize_potential,
)
from chns.checks import regularization_excess
from chns.experiments import parse_plan, run_epsilon_sweep

log = logarithmic_potential(theta=0.15, theta_c=0.3)
base = degenerate_mobility(n=1)

print("clamp width eps   sup|m_eps - m|   m_eps lower bound   max(F1eps - F1)")
s = np.linspace(-1 + 1e-9, 1 - 1e-9, 20001)
for eps in (0.2, 0.1, 0.05, 0.025):
    clamped = regularize_mobility(base, eps)
    gap = np.abs(mobility_value(clamped, s) - mobility_value(base, s)).max()
    below = regularization_excess(log, regularize_potential(log, eps), s)
    print(f"{eps:>14} {gap:>16.4f} {clamped.m1:>19.4f} {below:>17.1e}")

print("\nentropy barrier: G_eps(1.5) for shrinking eps")
for eps in (0.2, 0.1, 0.05, 0.025):
    ent = EntropyFunction(regularize_mobility(base, eps))
    print(f"  eps = {eps:<6} G_eps(1.5) = {ent.value(1.5):9.3f}")

print("\nshort sweep (32^2, T = 2e-3): overshoot and entropy stay controlled")
plan = parse_plan("""
experiment.kind = epsilon_sweep
epsilon_sweep.eps_list = 0.2, 0.1, 0.05
grid.n = 32
time.dt = 2e-4
time.t_final = 2e-3
init.noise_amp = 0.05
""")
rep = run_epsilon_sweep(plan)
for row in rep.summary:
    print(f"  eps = {row['eps']:<5} terminal overshoot = {row['terminal_overshoot']:.1e}  "
          f"entropy max = {row['entropy_max']:.2e}  max|phi| = {row['phi_max']:.4f}")
print(f"  raw logarithmic-potential run: max|phi| = {rep.notes['log_phi_max']:.4f} < 1")
