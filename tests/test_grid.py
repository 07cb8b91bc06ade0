"""Discrete operator identities on the staggered grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chns.grid import (
    Grid,
    ScalarField,
    VectorField,
    _advective_component,
    _div_arrays,
    _divergence_component,
    _edge_coefficients,
    _grad_arrays,
    _lap_arr,
    _lap_component_arr,
    advect_scalar,
    cell_to_face,
    convection,
    dirichlet_energy,
    divergence_fc,
    gradient_cc,
    laplacian_neumann,
    scalar_inner,
    trilinear_b,
    vector_inner,
    vector_norm,
    velocity_laplacian,
)
from chns.solver import vortex_field

from conftest import rand_scalar, rand_vector


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 16)
    with pytest.raises(ValueError):
        Grid(2, 4)
    g = Grid(2, 16)
    assert g.h * g.n == 1.0
    assert g.face_shape(0) == (17, 16)
    assert g.face_shape(1) == (16, 17)


def test_field_shape_checks(grid16):
    with pytest.raises(ValueError):
        ScalarField(grid16, np.zeros((16, 17)))
    with pytest.raises(ValueError):
        VectorField(grid16, (np.zeros((16, 16)), np.zeros((16, 17))))


def test_laplacian_annihilates_constants(grid32):
    out = laplacian_neumann(ScalarField.full(grid32, 3.25))
    assert np.abs(out.data).max() == 0.0


def test_laplacian_integral_vanishes(grid32, rng):
    phi = rand_scalar(grid32, rng)
    out = laplacian_neumann(phi)
    assert abs(out.data.sum() * grid32.cell_volume) < 1e-12


def test_laplacian_cosine_second_order():
    # phi = cos(pi x): discrete laplacian converges to -pi^2 cos(pi x) at
    # second order; Richardson ratio of max errors must sit in [3.6, 4.4].
    errs = []
    for n in (32, 64, 128):
        g = Grid(2, n)
        x = g.cell_centers(0)
        f = np.cos(np.pi * x)[:, None] * np.ones(n)[None, :]
        out = laplacian_neumann(ScalarField(g, f)).data
        errs.append(np.abs(out + np.pi**2 * f).max())
    assert 3.6 <= errs[0] / errs[1] <= 4.4
    assert 3.6 <= errs[1] / errs[2] <= 4.4


@pytest.mark.parametrize("n", [16, 32, 64])
def test_gradient_divergence_adjoint(n, rng):
    g = Grid(2, n)
    for _ in range(34):
        phi = rand_scalar(g, rng)
        v = rand_vector(g, rng)
        lhs = vector_inner(gradient_cc(phi), v)
        rhs = -scalar_inner(phi, divergence_fc(v))
        scale = vector_norm(v) * scalar_inner(phi, phi) ** 0.5
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


def test_gradient_of_constant_is_zero(grid32):
    g = gradient_cc(ScalarField.full(grid32, -1.7))
    assert all(np.abs(a).max() == 0.0 for a in g.components)


def test_div_grad_equals_laplacian(grid32, rng):
    phi = rand_scalar(grid32, rng)
    a = divergence_fc(gradient_cc(phi)).data
    b = laplacian_neumann(phi).data
    assert np.abs(a - b).max() <= 1e-12


def test_laplacian_self_adjoint(grid32, rng):
    phi = rand_scalar(grid32, rng)
    psi = rand_scalar(grid32, rng)
    lhs = scalar_inner(laplacian_neumann(phi), psi)
    rhs = scalar_inner(phi, laplacian_neumann(psi))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_trilinear_vanishing_diagonal(grid32, rng):
    for _ in range(20):
        u = rand_vector(grid32, rng)
        v = rand_vector(grid32, rng)
        scale = vector_norm(u) * vector_norm(v) ** 2
        assert abs(trilinear_b(u, v, v)) <= 1e-12 * scale


def test_trilinear_antisymmetry(grid32, rng):
    for _ in range(20):
        u, v, w = (rand_vector(grid32, rng) for _ in range(3))
        scale = vector_norm(u) * vector_norm(v) * vector_norm(w)
        assert abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) <= 1e-12 * scale


def test_trilinear_diagonal_for_nonsolenoidal(grid32, rng):
    # skew symmetry is structural: it does not need div u = 0
    u = rand_vector(grid32, rng, solenoidal=False)
    v = rand_vector(grid32, rng)
    assert abs(trilinear_b(u, v, v)) <= 1e-12 * vector_norm(u) * vector_norm(v) ** 2


def _consistency_fields(n):
    """Analytic divergence-free u and wall-supported v, w for quadrature."""
    g = Grid(2, n)
    pi = np.pi
    s, c = np.sin, np.cos
    s2 = lambda t: np.sin(pi * t) ** 2
    xf = g.face_coords(0)
    xc = g.cell_centers(0)
    u = VectorField(g, (
        s(pi * xf)[:, None] * c(pi * xc)[None, :],
        -c(pi * xc)[:, None] * s(pi * xf)[None, :],
    ))
    v = VectorField(g, (
        s2(xf)[:, None] * (s2(xc) * c(pi * xc))[None, :],
        (s2(xc) * s(2 * pi * xc))[:, None] * s2(xf)[None, :],
    ))
    w = VectorField(g, (
        (s2(xf) * c(pi * xf))[:, None] * s2(xc)[None, :],
        s2(xc)[:, None] * (s2(xf) * s(pi * xf))[None, :],
    ))
    return g, u, v, w


def _exact_trilinear(n=2048):
    """Midpoint quadrature of the analytic integrand sum u_i d_i v_j w_j."""
    pi = np.pi
    x = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    s, c = np.sin, np.cos
    s2 = lambda t: s(pi * t) ** 2
    ds2 = lambda t: 2 * pi * s(pi * t) * c(pi * t)
    ux = s(pi * X) * c(pi * Y)
    uy = -c(pi * X) * s(pi * Y)
    dvx_dx = ds2(X) * s2(Y) * c(pi * Y)
    dvx_dy = s2(X) * (ds2(Y) * c(pi * Y) - pi * s2(Y) * s(pi * Y))
    dvy_dx = (ds2(X) * s(2 * pi * X) + 2 * pi * s2(X) * c(2 * pi * X)) * s2(Y)
    dvy_dy = s2(X) * s(2 * pi * X) * ds2(Y)
    wx = s2(X) * c(pi * X) * s2(Y)
    wy = s2(X) * s2(Y) * s(pi * Y)
    integ = (ux * dvx_dx + uy * dvx_dy) * wx + (ux * dvy_dx + uy * dvy_dy) * wy
    return integ.sum() / n**2


def test_trilinear_consistency_second_order():
    exact = _exact_trilinear()
    errs = []
    for n in (32, 64, 128):
        g, u, v, w = _consistency_fields(n)
        errs.append(abs(trilinear_b(u, v, w) - exact))
    assert 3.0 <= errs[0] / errs[1] <= 5.0
    assert 3.0 <= errs[1] / errs[2] <= 5.0


def test_convection_consistency_second_order():
    # N(u)v converges to (u . grad)v for analytically solenoidal u
    pi = np.pi
    s, c = np.sin, np.cos
    s2 = lambda t: np.sin(pi * t) ** 2
    ds2 = lambda t: 2 * pi * np.sin(pi * t) * np.cos(pi * t)
    errs = []
    for n in (32, 64):
        g, u, v, _ = _consistency_fields(n)
        conv = convection(u, v)
        xf = g.face_coords(0)
        xc = g.cell_centers(0)
        X, Y = np.meshgrid(xf, xc, indexing="ij")
        ux = s(pi * X) * c(pi * Y)
        uy = -c(pi * X) * s(pi * Y)
        exact_x = ux * ds2(X) * (s2(Y) * c(pi * Y)) + uy * s2(X) * (
            ds2(Y) * c(pi * Y) - pi * s2(Y) * s(pi * Y)
        )
        errs.append(np.abs(conv.components[0][1:-1, :] - exact_x[1:-1, :]).max())
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_advect_zero_velocity(grid32, rng):
    phi = rand_scalar(grid32, rng)
    out = advect_scalar(VectorField.zeros(grid32), phi)
    assert np.abs(out.data).max() == 0.0


def test_advect_constant_scalar(grid32, rng):
    u = rand_vector(grid32, rng, solenoidal=True)
    out = advect_scalar(u, ScalarField.full(grid32, 2.5))
    assert np.abs(out.data).max() <= 1e-11


def test_advect_mass_neutral(grid32, rng):
    u = rand_vector(grid32, rng, solenoidal=True)
    phi = rand_scalar(grid32, rng)
    assert abs(advect_scalar(u, phi).data.sum() * grid32.cell_volume) <= 1e-12


def test_velocity_laplacian_symmetric_negative(grid16, rng):
    v = rand_vector(grid16, rng)
    w = rand_vector(grid16, rng)
    lhs = vector_inner(velocity_laplacian(v), w)
    rhs = vector_inner(v, velocity_laplacian(w))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    assert dirichlet_energy(v) >= 0.0


def test_cell_to_face_mirror(grid16, rng):
    phi = rand_scalar(grid16, rng)
    f = cell_to_face(phi, 0)
    assert np.allclose(f[0], phi.data[0])
    assert np.allclose(f[-1], phi.data[-1])
    assert np.allclose(f[1:-1], 0.5 * (phi.data[:-1] + phi.data[1:]))


def test_three_dimensional_operators(rng):
    g = Grid(3, 8)
    phi = rand_scalar(g, rng)
    v = rand_vector(g, rng)
    lhs = vector_inner(gradient_cc(phi), v)
    rhs = -scalar_inner(phi, divergence_fc(v))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, vector_norm(v))
    assert np.abs(
        divergence_fc(gradient_cc(phi)).data - laplacian_neumann(phi).data
    ).max() <= 1e-12
    u = rand_vector(g, rng)
    assert abs(trilinear_b(u, v, v)) <= 1e-12 * vector_norm(u) * vector_norm(v) ** 2


def test_vortex_field_respects_walls():
    for dim in (2, 3):
        g = Grid(dim, 8)
        u = vortex_field(g, 1.0)
        for c, a in enumerate(u.components):
            sl = [slice(None)] * dim
            sl[c] = 0
            assert np.abs(a[tuple(sl)]).max() == 0.0
            sl[c] = -1
            assert np.abs(a[tuple(sl)]).max() == 0.0


# ---------------------------------------------------------------------------
# properties over dimension, resolution and random fields

GRIDS = dict(dim=st.sampled_from([2, 3]), n=st.integers(8, 24), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(**GRIDS)
def test_summation_by_parts_property(dim, n, seed):
    # <grad p, v> = -<p, div v> for every v with zero normal wall faces
    g = Grid(dim, n)
    rng = np.random.default_rng(seed)
    phi = rand_scalar(g, rng)
    v = rand_vector(g, rng)
    grad = gradient_cc(phi)
    lhs = vector_inner(grad, v)
    rhs = -scalar_inner(phi, divergence_fc(v))
    assert abs(lhs - rhs) <= 1e-12 * vector_norm(grad) * vector_norm(v)


@settings(max_examples=25, deadline=None)
@given(**GRIDS)
def test_div_grad_is_the_neumann_stencil_property(dim, n, seed):
    g = Grid(dim, n)
    p = np.random.default_rng(seed).standard_normal(g.cell_shape)
    lap = _lap_arr(g, p)
    assert np.array_equal(_div_arrays(g, _grad_arrays(g, p)), lap)
    # independent check: the (2 dim + 1)-point stencil with mirrored ghosts
    ref = np.zeros_like(p)
    for c in range(dim):
        q = np.pad(p, [(1, 1) if a == c else (0, 0) for a in range(dim)], mode="edge")
        ref += np.diff(q, n=2, axis=c)
    ref /= g.h**2
    assert np.abs(lap - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=25, deadline=None)
@given(**GRIDS)
def test_trilinear_diagonal_vanishes_property(dim, n, seed):
    g = Grid(dim, n)
    rng = np.random.default_rng(seed)
    u = rand_vector(g, rng)
    v = rand_vector(g, rng)
    assert trilinear_b(u, v, v) == 0.0


# np.diff / np.pad forms of the stencils, kept as references for the
# slice-and-edge-write versions in chns.grid


def _ref_sl(nd, axis, s):
    idx = [slice(None)] * nd
    idx[axis] = s
    return tuple(idx)


def _ref_grad(grid, p):
    nd = grid.dim
    out = []
    for c in range(nd):
        g = np.zeros(grid.face_shape(c))
        g[_ref_sl(nd, c, slice(1, -1))] = np.diff(p, axis=c) / grid.h
        out.append(g)
    return out


def _ref_div(grid, comps):
    acc = np.diff(comps[0], axis=0)
    for c in range(1, grid.dim):
        acc = acc + np.diff(comps[c], axis=c)
    return acc / grid.h


def _ref_advective(grid, coefs, vc, c):
    nd, h = grid.dim, grid.h
    out = np.zeros_like(vc)
    for e in range(nd):
        w = coefs[e]
        if e == c:
            t = w * np.diff(vc, axis=c)
            out[_ref_sl(nd, c, slice(1, -1))] += (
                t[_ref_sl(nd, c, slice(1, None))] + t[_ref_sl(nd, c, slice(None, -1))]
            ) / (2.0 * h)
        else:
            t = w[_ref_sl(nd, e, slice(1, -1))] * np.diff(vc, axis=e)
            pad = [(0, 0)] * nd
            pad[e] = (1, 0)
            lo = np.pad(t, pad)
            pad[e] = (0, 1)
            hi = np.pad(t, pad)
            out += (lo + hi) / (2.0 * h)
    out[_ref_sl(nd, c, 0)] = 0.0
    out[_ref_sl(nd, c, -1)] = 0.0
    return out


def _ref_divergence(grid, coefs, vc, c):
    nd, h = grid.dim, grid.h
    out = np.zeros_like(vc)
    for e in range(nd):
        w = coefs[e]
        lo = vc[_ref_sl(nd, e, slice(None, -1))]
        hi = vc[_ref_sl(nd, e, slice(1, None))]
        if e == c:
            s = w * 0.5 * (lo + hi)
            out[_ref_sl(nd, c, slice(1, -1))] += np.diff(s, axis=c) / h
        else:
            s = w[_ref_sl(nd, e, slice(1, -1))] * 0.5 * (lo + hi)
            pad = [(0, 0)] * nd
            pad[e] = (1, 1)
            out += np.diff(np.pad(s, pad), axis=e) / h
    out[_ref_sl(nd, c, 0)] = 0.0
    out[_ref_sl(nd, c, -1)] = 0.0
    return out


def _ref_lap_component(grid, a, c):
    nd = grid.dim
    h2 = grid.h**2
    out = np.zeros_like(a)
    out[_ref_sl(nd, c, slice(1, -1))] = (
        a[_ref_sl(nd, c, slice(None, -2))]
        - 2.0 * a[_ref_sl(nd, c, slice(1, -1))]
        + a[_ref_sl(nd, c, slice(2, None))]
    ) / h2
    for e in range(nd):
        if e == c:
            continue
        mid = _ref_sl(nd, e, slice(1, -1))
        out[mid] += (
            a[_ref_sl(nd, e, slice(None, -2))] - 2.0 * a[mid] + a[_ref_sl(nd, e, slice(2, None))]
        ) / h2
        lo, hi = _ref_sl(nd, e, 0), _ref_sl(nd, e, -1)
        out[lo] += (a[_ref_sl(nd, e, 1)] - 3.0 * a[lo]) / h2
        out[hi] += (a[_ref_sl(nd, e, -2)] - 3.0 * a[hi]) / h2
    out[_ref_sl(nd, c, 0)] = 0.0
    out[_ref_sl(nd, c, -1)] = 0.0
    return out


def _same_bits(a, b):
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(**GRIDS)
def test_stencils_match_diff_and_pad_forms_bitwise(dim, n, seed):
    g = Grid(dim, n)
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(g.cell_shape)
    a = rand_vector(g, rng)
    v = rand_vector(g, rng)
    assert all(_same_bits(x, y) for x, y in zip(_grad_arrays(g, p), _ref_grad(g, p)))
    assert _same_bits(_div_arrays(g, list(v.components)), _ref_div(g, v.components))
    for c in range(dim):
        coefs = _edge_coefficients(a, c)
        vc = v.components[c]
        assert _same_bits(_advective_component(g, coefs, vc, c), _ref_advective(g, coefs, vc, c))
        assert _same_bits(_divergence_component(g, coefs, vc, c), _ref_divergence(g, coefs, vc, c))
        assert _same_bits(_lap_component_arr(g, vc, c), _ref_lap_component(g, vc, c))
