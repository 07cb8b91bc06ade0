"""Neumann Poisson solves, Helmholtz-Hodge projection and the H^-1 norm.

The mirror-closure Laplacian on a uniform grid is diagonalized exactly by
the type-II cosine transform (Schumann & Sweet, J. Comput. Phys. 75, 1988),
so every Poisson solve is one direct spectral solve, `solve_neumann_poisson`,
which the projection and `neumann_inverse` share.  Its true residual is
measured and reported; `PoissonSolveReport` travels with every solve.  A
direct solve has no tolerance to tune: the residual is checked against the
fixed `RESIDUAL_TOL`, the default of every public solve.

The no-slip Laplacian of one velocity component is diagonalized the same
way by sine transforms (DST-I between the pinned wall faces, DST-II across
the reflected ghosts); `_face_inverse` is the exact inverse the viscous
solve in `solver` is preconditioned with.

Each transform is a dense orthonormal 1-D basis, built analytically,
memoized per (kind, n) by `functools.lru_cache` (the symbols per grid) and
applied by one matrix product per axis; the inverse is its transpose.  At
the sizes a run takes (64^2, 128^2, up to 32^3) the products beat
`scipy.fft`'s r2r calls, whose per-call overhead dominates there; the two
roughly tie at 256^2.  The CH preconditioner in `solver` shares the
``dct2`` basis, so no solve needs `scipy.fft`.

The pure-Neumann operator is singular: right-hand sides are projected onto
mean zero and the solution carries no constant mode.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .grid import ScalarField, VectorField, _div_arrays, _grad_arrays, _norm, _planes

__all__ = [
    "PoissonSolveReport",
    "solve_neumann_poisson",
    "helmholtz_project",
    "neumann_inverse",
]


@dataclass(frozen=True)
class PoissonSolveReport:
    iterations: int
    relative_residual: float


RESIDUAL_TOL = 1e-10  # bound on the relative residual of every Poisson solve


@lru_cache(maxsize=None)
def _basis(kind, n):
    """Orthonormal 1-D transform matrix M, ``M @ x`` the transform of x and
    ``M.T @ X`` its inverse: ``dct2`` and ``dst2`` on n points, ``dst1`` on
    the n - 1 faces between two pinned walls.  M equals scipy.fft's
    ``norm="ortho"`` transform of the identity."""
    rows, cols, wave = {
        "dct2": (np.arange(n), np.arange(1, 2 * n, 2), np.cos),
        "dst2": (np.arange(1, n + 1), np.arange(1, 2 * n, 2), np.sin),
        "dst1": (np.arange(1, n), np.arange(2, 2 * n, 2), np.sin),
    }[kind]
    # phase pi p / (2n) with the integer p reduced mod 4n, so the angles
    # stay below 2 pi and the entries are good to about 1e-16
    m = np.sqrt(2.0 / n) * wave(np.pi * (rows[:, None] * cols % (4 * n)) / (2 * n))
    if kind != "dst1":
        m[0 if kind == "dct2" else -1] /= np.sqrt(2.0)
    return m


def _apply_bases(a, mats):
    """``a`` transformed by ``mats[axis]`` along each axis, one matrix
    product per axis: ``a @ M.T`` on the last, a broadcast ``M @ a`` on the
    middle one in 3D and ``M @ a`` on the first, flattened to 2-D."""
    a = a @ mats[-1].T
    if len(mats) == 3:
        a = mats[1] @ a
    return (mats[0] @ a.reshape(a.shape[0], -1)).reshape(a.shape)


def _lap_eigenvalues(k, n, h):
    """Eigenvalues (2 - 2 cos(pi k / n)) / h^2 of the 1-D -Laplacian."""
    return (2.0 - 2.0 * np.cos(np.pi * k / n)) / h**2


def _symbol(grid, modes):
    """Sum of the 1-D eigenvalues at ``modes[axis]``, broadcast to the grid."""
    lam = 0.0
    for axis, k in enumerate(modes):
        shape = [1] * grid.dim
        shape[axis] = k.size
        lam = lam + _lap_eigenvalues(k, grid.n, grid.h).reshape(shape)
    return lam


@lru_cache(maxsize=None)
def _neumann_symbol(grid):
    """Eigenvalues of -Laplacian in the DCT-II basis, broadcast to the grid."""
    return _symbol(grid, [np.arange(grid.n)] * grid.dim)


@lru_cache(maxsize=None)
def _neumann_inverse_symbol(grid):
    """1 / `_neumann_symbol`, with the constant mode mapped to 0."""
    lam = _neumann_symbol(grid)
    return np.divide(1.0, lam, out=np.zeros(lam.shape), where=lam > 0.0)


@lru_cache(maxsize=None)
def _face_symbol(grid, c):
    """Eigenvalues of -Laplacian on component c's interior faces: DST-I
    along axis c (n-1 faces between pinned walls), DST-II across the other
    axes (n cells with reflected ghosts)."""
    n = grid.n
    modes = [np.arange(1, n) if e == c else np.arange(1, n + 1) for e in range(grid.dim)]
    return _symbol(grid, modes)


@lru_cache(maxsize=None)
def _face_bases(grid, c):
    """(interior index, forward bases, inverse bases) of `_face_inverse`."""
    n = grid.n
    mats = [_basis("dst1", n) if e == c else _basis("dst2", n) for e in range(grid.dim)]
    return _planes(grid.dim, c)[2], mats, [m.T for m in mats]


@lru_cache(maxsize=None)
def _dct2_bases(n, dim):
    """(forward, inverse) DCT-II bases of every axis of an n^dim grid."""
    m = _basis("dct2", n)
    return [m] * dim, [m.T] * dim


def _face_inverse(grid, c, y, shift, denom, out):
    """Exact solution x of shift x - scale Lap_c x = y, written into ``out``
    and returned, with Lap_c the no-slip component Laplacian
    ``grid._lap_component_arr`` and ``denom`` its symbol
    shift + scale `_face_symbol(grid, c)`, for y whose wall faces of
    component c are zero: the DST-I solves between pinned walls.  A nonzero
    wall face comes back as y / shift, but the interior is solved as if it
    were zero, so the rows next to that wall miss y."""
    inner, mats, inverse = _face_bases(grid, c)
    xhat = _apply_bases(y[inner], mats)
    xhat /= denom
    np.divide(y, shift, out=out)
    out[inner] = _apply_bases(xhat, inverse)
    return out


def _spectral_solve(grid, rhs):
    """Exact mean-zero solution of -Lap u = rhs - mean(rhs)."""
    forward, inverse = _dct2_bases(grid.n, grid.dim)
    fhat = _apply_bases(rhs, forward)
    fhat *= _neumann_inverse_symbol(grid)
    return _apply_bases(fhat, inverse)


def solve_neumann_poisson(grid, rhs, tol):
    """Solve -Lap u = rhs (mean-zero data) by one direct DCT solve.

    Returns (u, grad u, report): u has zero mean and its face gradient is
    the one built for the residual check.  Raises ConvergenceError if the
    measured relative residual exceeds ``tol`` or is not finite.
    """
    b = rhs - rhs.sum() / rhs.size  # rhs - rhs.mean(), without its wrapper
    with np.errstate(over="ignore"):  # an overflowing norm fails the check below
        bnorm = _norm(b)
    if bnorm == 0.0:
        x = np.zeros(b.shape)
        return x, _grad_arrays(grid, x), PoissonSolveReport(0, 0.0)

    x = _spectral_solve(grid, b)
    g = _grad_arrays(grid, x)
    with np.errstate(over="ignore"):
        rel = _norm(b + _div_arrays(grid, g)) / bnorm
    report = PoissonSolveReport(1, rel)
    if not rel <= tol:  # true for a nan residual too
        raise ConvergenceError(
            f"Neumann Poisson solve missed tolerance: relative residual "
            f"{rel:.3e} (tol {tol:.1e})",
            report=report,
        )
    return x, g, report


def helmholtz_project(v, tol=RESIDUAL_TOL):
    """Helmholtz-Hodge projection onto discretely divergence-free fields.

    Returns (P v, report).  P v = v - grad q with Lap q = div v; the output
    divergence is the Poisson residual, at most ``tol`` relative.
    """
    out, _, report = helmholtz_project_with_potential(v, tol)
    return out, report


def helmholtz_project_with_potential(v, tol=RESIDUAL_TOL):
    """``helmholtz_project`` that also returns the scalar potential q:
    (P v, q, report)."""
    if tol <= 0.0:
        raise PreconditionError(f"projection tolerance must be positive, got {tol}")
    grid = v.grid
    # Lap q = div v, i.e. -Lap q = -div v
    q, gq, report = solve_neumann_poisson(grid, -_div_arrays(grid, v.components), tol)
    out = VectorField(grid, tuple([a - g for a, g in zip(v.components, gq)]))
    out.zero_normal_boundaries()
    return out, ScalarField(grid, q), report


def neumann_inverse(f, tol=RESIDUAL_TOL):
    """Inverse Neumann Laplacian and the associated H^-1 norm.

    Solves -Lap u = f for mean-zero f and returns
    (u, ||f||_* = ||grad u||, report).  Inputs whose discrete mean is not
    within 1e-10 of zero (relative to the field scale) are rejected.
    """
    grid = f.grid
    if tol <= 0.0:
        raise PreconditionError(f"solve tolerance must be positive, got {tol}")
    scale = max(1.0, float(np.abs(f.data).max()))
    if abs(f.data.mean()) > 1e-10 * scale:
        raise PreconditionError(
            f"neumann_inverse needs mean-zero data; discrete mean is {f.data.mean():.3e}"
        )
    u, g, report = solve_neumann_poisson(grid, f.data, tol)
    star = 0.0
    for a in g:
        star += float(np.vdot(a, a))
    star = (star * grid.cell_volume) ** 0.5
    return ScalarField(grid, u), star, report
