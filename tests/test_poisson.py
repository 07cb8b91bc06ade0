"""Helmholtz projection and inverse Neumann Laplacian."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chns.errors import ConvergenceError, PreconditionError
from chns.grid import (
    Grid,
    ScalarField,
    VectorField,
    _lap_component_arr,
    divergence_fc,
    gradient_cc,
    laplacian_neumann,
    scalar_inner,
    vector_inner,
    vector_norm,
)
from chns.poisson import (
    PoissonSolveReport,
    _basis,
    _face_inverse,
    helmholtz_project,
    helmholtz_project_with_potential,
    neumann_inverse,
    solve_neumann_poisson,
)

from conftest import rand_scalar, rand_vector

TOL = 1e-10

# the 2-D grids of the desk runs and benchmark workloads, and the largest 3-D
# grid a config accepts; the hypothesis strategies below draw n <= 24, so
# these run as explicit examples
WORKLOAD_GRIDS = [(2, 64), (2, 128), (3, 32)]

# kind -> (scipy.fft transform, its type, basis size minus n)
SCIPY_TRANSFORMS = {
    "dct2": (scipy.fft.dct, 2, 0),
    "dst2": (scipy.fft.dst, 2, 0),
    "dst1": (scipy.fft.dst, 1, -1),
}


@pytest.mark.parametrize("n", [8, 9, 17, 64, 128])
@pytest.mark.parametrize("kind", list(SCIPY_TRANSFORMS))
def test_basis_is_orthonormal_scipy_transform(kind, n):
    transform, kind_type, size = SCIPY_TRANSFORMS[kind]
    m = _basis(kind, n)
    eye = np.eye(n + size)
    assert np.abs(m @ m.T - eye).max() <= 1e-14
    assert np.abs(m - transform(eye, type=kind_type, norm="ortho", axis=0)).max() <= 1e-14
    assert _basis(kind, n) is m


def test_project_divergence_free_fixed_point(grid32, rng):
    v = rand_vector(grid32, rng, solenoidal=True)
    pv, report = helmholtz_project(v, TOL)
    diff = max(np.abs(a - b).max() for a, b in zip(pv.components, v.components))
    assert diff <= 1e-10
    assert report.relative_residual <= TOL


def test_project_kills_gradients(grid32, rng):
    q = rand_scalar(grid32, rng)
    gq = gradient_cc(q)
    pg, _ = helmholtz_project(gq, TOL)
    assert pg.max_abs() <= 1e-10 * max(1.0, gq.max_abs())


def test_project_orthogonality(grid32, rng):
    for _ in range(10):
        v = rand_vector(grid32, rng)
        pv, _ = helmholtz_project(v, TOL)
        d = VectorField(
            grid32, tuple(a - b for a, b in zip(v.components, pv.components))
        )
        lhs = vector_norm(pv) ** 2 + vector_norm(d) ** 2
        assert abs(lhs - vector_norm(v) ** 2) <= 1e-10 * vector_norm(v) ** 2


def test_project_idempotent(grid32, rng):
    v = rand_vector(grid32, rng)
    pv, _ = helmholtz_project(v, TOL)
    ppv, _ = helmholtz_project(pv, TOL)
    diff = max(np.abs(a - b).max() for a, b in zip(ppv.components, pv.components))
    assert diff <= 10 * TOL


def test_project_output_divergence(grid32, rng):
    v = rand_vector(grid32, rng)
    pv, _ = helmholtz_project(v, TOL)
    assert np.abs(divergence_fc(pv).data).max() <= TOL


def test_neumann_inverse_zero():
    g = Grid(2, 16)
    u, star, report = neumann_inverse(ScalarField.zeros(g), TOL)
    assert np.abs(u.data).max() == 0.0
    assert star == 0.0
    assert report.iterations == 0


def test_neumann_inverse_requires_mean_zero(grid16, rng):
    f = rand_scalar(grid16, rng)
    f.data += 0.5
    with pytest.raises(PreconditionError):
        neumann_inverse(f, TOL)


def test_tolerances_must_be_positive(grid16, rng):
    with pytest.raises(PreconditionError):
        helmholtz_project(rand_vector(grid16, rng), 0.0)
    with pytest.raises(PreconditionError):
        helmholtz_project_with_potential(rand_vector(grid16, rng), -1e-10)
    with pytest.raises(PreconditionError):
        neumann_inverse(rand_scalar(grid16, rng, mean_zero=True), -1e-10)


def test_neumann_inverse_symmetry(grid32, rng):
    for _ in range(20):
        f = rand_scalar(grid32, rng, mean_zero=True)
        g = rand_scalar(grid32, rng, mean_zero=True)
        uf, sf, _ = neumann_inverse(f, TOL)
        ug, _, _ = neumann_inverse(g, TOL)
        assert abs(scalar_inner(f, ug) - scalar_inner(g, uf)) <= 1e-10 * max(sf, 1.0)


def test_star_norm_chains_through_inverse(grid32, rng):
    f = rand_scalar(grid32, rng, mean_zero=True)
    u, star, _ = neumann_inverse(f, TOL)
    assert abs(star**2 - scalar_inner(f, u)) <= 1e-10 * star**2


def test_inverse_solves_the_pde(grid32, rng):
    f = rand_scalar(grid32, rng, mean_zero=True)
    u, _, _ = neumann_inverse(f, TOL)
    back = -laplacian_neumann(u).data
    assert np.abs(back - f.data).max() <= 1e-9 * max(1.0, np.abs(f.data).max())
    assert abs(u.data.mean()) <= 1e-14


def test_report_carries_convergence_failure(grid16, rng):
    b = rand_scalar(grid16, rng, mean_zero=True).data
    with pytest.raises(ConvergenceError) as err:
        solve_neumann_poisson(grid16, b, tol=0.0)
    assert err.value.report.iterations == 1
    assert err.value.report.relative_residual > 0.0


def _workload_examples(**fixed):
    """Hypothesis ``@example``s at every grid of WORKLOAD_GRIDS."""
    def wrap(test):
        for dim, n in WORKLOAD_GRIDS:
            test = example(dim=dim, n=n, seed=n, **fixed)(test)
        return test
    return wrap


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(8, 24),
    seed=st.integers(0, 2**32 - 1),
    offset=st.floats(-10.0, 10.0),
)
@_workload_examples(offset=5.0)
def test_direct_solve_is_exact(dim, n, seed, offset):
    grid = Grid(dim, n)
    b = np.random.default_rng(seed).standard_normal(grid.cell_shape) + offset
    u, g, report = solve_neumann_poisson(grid, b, TOL)
    b0 = b - b.mean()
    resid = -laplacian_neumann(ScalarField(grid, u)).data - b0
    rel = np.linalg.norm(resid) / np.linalg.norm(b0)
    assert rel <= 1e-12
    assert abs(u.mean()) <= 1e-14
    assert report.relative_residual == pytest.approx(rel, rel=1e-12, abs=1e-30)
    assert report.iterations == 1
    for got, want in zip(g, gradient_cc(ScalarField(grid, u)).components):
        assert got.tobytes() == want.tobytes()

    zero, gzero, report = solve_neumann_poisson(grid, np.zeros(grid.cell_shape), TOL)
    assert not zero.any() and not any(a.any() for a in gzero)
    assert report == PoissonSolveReport(0, 0.0)


@pytest.mark.parametrize("scale, fill", [(1.0, np.nan), (1e200, None)], ids=["nan", "overflow"])
def test_non_finite_residual_is_rejected(grid16, rng, scale, fill):
    # nan > tol is False, so a residual gate written that way lets nan through
    b = scale * rng.standard_normal(grid16.cell_shape)
    if fill is not None:
        b[:] = fill
    with pytest.raises(ConvergenceError, match="relative residual nan") as err:
        solve_neumann_poisson(grid16, b, TOL)
    assert np.isnan(err.value.report.relative_residual)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(8, 24),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(1.0, 100.0),
    scale=st.floats(1e-6, 10.0),
)
@_workload_examples(shift=1.0, scale=10.0)
def test_face_inverse_is_exact(dim, n, seed, shift, scale):
    # the sine-transform inverse undoes shift - scale * (no-slip component
    # Laplacian) on every component, wall faces pinned at zero
    grid = Grid(dim, n)
    v = rand_vector(grid, np.random.default_rng(seed))
    for c, x in enumerate(v.components):
        y = shift * x - scale * _lap_component_arr(grid, x, c)
        back = _face_inverse(grid, c, y, shift, scale)
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


def test_discrete_mode_star_norm_ratio():
    # single cosine mode: ||rho||_* / ||rho|| equals 1/sqrt(lambda_1) with
    # the discrete eigenvalue lambda_1 = (2 - 2 cos(pi/n)) / h^2, which is
    # within 2% of 1/pi at n = 64.
    g = Grid(2, 64)
    x = g.cell_centers(0)
    rho = ScalarField(g, np.cos(np.pi * x)[:, None] * np.ones(g.n)[None, :])
    _, star, _ = neumann_inverse(rho, TOL)
    l2 = np.linalg.norm(rho.data) * g.cell_volume**0.5
    lam1 = (2.0 - 2.0 * np.cos(np.pi / g.n)) / g.h**2
    assert abs(star / l2 - 1.0 / lam1**0.5) <= 1e-10
    assert abs(star / l2 - 1.0 / np.pi) <= 0.02 / np.pi


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(8, 24), seed=st.integers(0, 2**32 - 1))
@_workload_examples()
def test_projection_idempotent_and_orthogonal_property(dim, n, seed):
    g = Grid(dim, n)
    v = rand_vector(g, np.random.default_rng(seed))
    pv, _ = helmholtz_project(v, 1e-12)
    ppv, _ = helmholtz_project(pv, 1e-12)
    scale = vector_norm(v)
    diff = VectorField(g, tuple(a - b for a, b in zip(ppv.components, pv.components)))
    assert vector_norm(diff) <= 1e-12 * scale
    # the removed part v - P v is a gradient, orthogonal to P v
    d = VectorField(g, tuple(a - b for a, b in zip(v.components, pv.components)))
    assert abs(vector_inner(pv, d)) <= 1e-12 * scale**2
