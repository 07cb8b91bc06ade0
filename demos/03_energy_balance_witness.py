"""Numerical witness of the energy balance at the critical exponent r = 3.

The continuous model satisfies an exact balance: the energy drop equals
the integrated viscous + damping + mobility dissipation minus the work of
the external force.  A first-order scheme can only witness the identity
asymptotically, so the right check is not a fixed tolerance but an order:
the normalized residual of the balance must halve when the step halves.

This is the same computation the acceptance suite pins at
dt in {1e-4, 5e-5}; here a three-point sweep makes the trend visible.
"""

import numpy as np

from chns import (
    Grid,
    ScalarField,
    Simulation,
    SolverParams,
    State,
    constant_mobility,
    energy_balance_residual,
    helmholtz_project,
    regular_potential,
    vortex_field,
)

grid = Grid(2, 64)
pot = regular_potential()
mob = constant_mobility()


def smooth_state():
    x = grid.cell_centers(0)
    X, Y = np.meshgrid(x, x, indexing="ij")
    phi = ScalarField(grid, 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)
                      + 0.15 * np.cos(2 * np.pi * X) + 0.1 * np.cos(np.pi * Y))
    u, _ = helmholtz_project(vortex_field(grid, 0.4), 1e-12)
    return State(0.0, u, phi, ScalarField.zeros(grid))


T = 0.1
print(f"64^2 grid, r = 3, T = {T}; smooth initial data")
print(f"{'dt':>10} {'residual':>12} {'ratio':>8}")
prev = None
for dt in (2e-4, 1e-4, 5e-5):
    params = SolverParams(nu=1.0, beta=1.0, r=3.0, dt=dt, t_final=T)
    sim = Simulation(grid, params, pot, mob, smooth_state())
    sim.run()
    res = energy_balance_residual(sim.ledger)
    ratio = "" if prev is None else f"{prev / res:8.2f}"
    print(f"{dt:>10} {res:>12.4e} {ratio}")
    prev = res
print("first-order convergence: each halving of dt halves the residual")
