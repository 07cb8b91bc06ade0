"""Tour of the staggered-grid operator toolkit.

The discretization is chosen so that the structure the model lives on is
exact at the grid level, not just in the limit:

* gradient and divergence are adjoint up to roundoff, so the Laplacian
  div(grad(.)) is symmetric and conserves integrals;
* the Helmholtz-Hodge projection is an exact orthogonal projector
  (the cosine-transform Poisson solve inverts the discrete operator to
  machine precision);
* the convection form b(u, v, w) is skew-symmetrized, so b(u, v, v) = 0
  identically -- kinetic energy cannot leak through the convective term;
* the inverse Neumann Laplacian defines the H^-1 norm used by the
  continuous-dependence studies.

Run:  python3 demos/01_operator_toolkit.py
"""

import numpy as np

from chns import (
    Grid,
    ScalarField,
    VectorField,
    divergence_fc,
    gradient_cc,
    helmholtz_project,
    laplacian_neumann,
    neumann_inverse,
    trilinear_b,
)
from chns.grid import scalar_inner, vector_inner, vector_norm

rng = np.random.default_rng(1)
grid = Grid(2, 64)
print(f"grid: {grid.dim}D, {grid.n} cells/axis, h = {grid.h}")


def random_velocity():
    v = VectorField(grid, tuple(rng.standard_normal(grid.face_shape(c)) for c in range(2)))
    return v.zero_normal_boundaries()


# 1. adjointness: <grad phi, v> = -<phi, div v>
phi = ScalarField(grid, rng.standard_normal(grid.cell_shape))
v = random_velocity()
lhs = vector_inner(gradient_cc(phi), v)
rhs = -scalar_inner(phi, divergence_fc(v))
print(f"adjointness defect            : {abs(lhs - rhs):.2e}")

# 2. the Laplacian annihilates constants and integrates to zero
lap = laplacian_neumann(phi)
print(f"laplacian integral            : {abs(lap.data.sum() * grid.cell_volume):.2e}")

# 3. projection: divergence removal, orthogonality, idempotence
pv, report = helmholtz_project(v, 1e-10)
d = VectorField(grid, tuple(a - b for a, b in zip(v.components, pv.components)))
print(f"projection solve              : direct DCT, "
      f"residual {report.relative_residual:.1e}")
print(f"max |div P v|                 : {np.abs(divergence_fc(pv).data).max():.2e}")
pyth = vector_norm(pv) ** 2 + vector_norm(d) ** 2 - vector_norm(v) ** 2
print(f"orthogonality defect          : {abs(pyth) / vector_norm(v)**2:.2e}")

# 4. skew convection: b(u, v, v) = 0 for every advecting field
u = random_velocity()
w = random_velocity()
print(f"b(u, v, v)                    : {trilinear_b(u, v, v):.2e}")
print(f"b(u, v, w) + b(u, w, v)       : {trilinear_b(u, v, w) + trilinear_b(u, w, v):.2e}")

# 5. H^-1 norm of a single cosine mode: ||rho||_* / ||rho|| ~ 1/pi
x = grid.cell_centers(0)
rho = ScalarField(grid, np.cos(np.pi * x)[:, None] * np.ones(grid.n)[None, :])
_, star, _ = neumann_inverse(rho, 1e-10)
l2 = np.linalg.norm(rho.data) * grid.cell_volume**0.5
print(f"||rho||_*/||rho|| for cos(pi x): {star / l2:.6f}  (1/pi = {1/np.pi:.6f})")
