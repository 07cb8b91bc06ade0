"""Time stepping: equilibria, conservation, dissipation, damping."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chns.diagnostics
import chns.grid
import chns.poisson
import chns.solver
from chns.checks import ledger_div_max, ledger_energy_rise, ledger_mass_drift, rand_vector
from chns.config import build_simulation, parse_config
from chns.errors import DomainError, ParameterError, StepError
from chns.grid import (
    Grid,
    ScalarField,
    VectorField,
    _grad_arrays,
    _lap_arr,
    _lap_component_arr,
    cell_to_face,
    center_components,
    convection,
    vector_inner,
)
from chns.materials import (
    constant_mobility,
    degenerate_mobility,
    logarithmic_potential,
    mobility_value,
    potential_concave_deriv,
    potential_convex_deriv,
    potential_deriv,
    regular_potential,
    regularize_mobility,
    regularize_potential,
)
from chns.poisson import (
    RESIDUAL_TOL,
    _face_inverse,
    _face_symbol,
    helmholtz_project,
    helmholtz_project_with_potential,
)
from chns.solver import (
    ForcingSpec,
    _cg_component,
    _ch_preconditioner,
    _lartg,
    _uniform,
    Simulation,
    SolverParams,
    State,
    damping_pairing,
    gmres,
    initial_state,
    step_ch,
    step_coupled,
    step_ns,
    vortex_field,
)

from conftest import solenoidal_vector, spy

POT = regular_potential()
MOB = constant_mobility()


def make_state(grid, phi_data, u=None):
    return State(
        0.0,
        u if u is not None else VectorField.zeros(grid),
        ScalarField(grid, phi_data),
        ScalarField.zeros(grid),
    )


def chemical_potential(state, pot=POT):
    """mu = -Lap phi + F'(phi) as a step builds it: the state's cached
    -Lap phi + F_c'(phi) plus the concave part F_e'(phi)."""
    phi = state.phi
    mu = state.cells_mu_convex(pot, MOB) + potential_concave_deriv(pot, phi.data)
    return ScalarField(phi.grid, mu)


@pytest.mark.parametrize("spec, name", [
    (spec, f.name) for spec in (SolverParams, ForcingSpec)
    for f in dataclasses.fields(spec) if f.type is float
])
def test_non_finite_parameter_is_rejected(spec, name):
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError, match=rf"{spec.__name__}\.{name} must be finite"):
            spec(**{name: value})


def test_solver_params_validation():
    with pytest.raises(ParameterError):
        SolverParams(nu=0.0)
    with pytest.raises(ParameterError):
        SolverParams(beta=-1.0)
    with pytest.raises(ParameterError):
        SolverParams(r=0.5)
    with pytest.raises(ParameterError):
        SolverParams(dt=0.0)
    assert SolverParams(beta=0.0).beta == 0.0  # damping-free limit allowed
    assert SolverParams(r=3.0).critical
    assert not SolverParams(r=2.0).critical


def test_n_steps_rounds_t_final_over_dt(grid16):
    params = SolverParams(dt=3e-4, t_final=1e-3)
    assert params.n_steps == 3
    st = initial_state(grid16, 0.0, 0.05, seed=3)
    sim = Simulation(grid16, params, POT, MOB, st)
    sim.run()
    assert len(sim.ledger.records) == 1 + 3


def test_chemical_potential_at_minimizers(grid32):
    # F'(1) = 0 and F'(0) = 0 for the quartic double well
    for c in (1.0, 0.0):
        st = make_state(grid32, np.full(grid32.cell_shape, c))
        assert np.abs(chemical_potential(st).data).max() == 0.0


def test_chemical_potential_mean_matches_fprime(grid32, rng):
    # the laplacian integrates to zero, so <mu, 1> = <F'(phi), 1>
    st = make_state(grid32, 0.3 * rng.standard_normal(grid32.cell_shape))
    phi = st.phi
    lhs = chemical_potential(st).data.sum() * grid32.cell_volume
    rhs = np.sum(potential_deriv(POT, phi.data, 1)) * grid32.cell_volume
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_chemical_potential_log_domain_error(grid16):
    phi = np.zeros(grid16.cell_shape)
    phi[0, 0] = 1.0
    with pytest.raises(DomainError):
        chemical_potential(make_state(grid16, phi), logarithmic_potential())


def test_step_ch_uniform_equilibrium(grid32):
    params = SolverParams(dt=1e-4)
    for c in (0.0, 0.4, 1.0):
        st = make_state(grid32, np.full(grid32.cell_shape, c))
        out = step_ch(st, params, POT, MOB)[0]
        assert np.abs(out.data - c).max() == 0.0


def test_step_ch_conserves_mass(grid32, rng):
    params = SolverParams(dt=1e-4)
    phi = 0.1 + 0.05 * rng.uniform(-1, 1, grid32.cell_shape)
    u = solenoidal_vector(grid32, rng)
    st = make_state(grid32, phi, u=u)
    out = step_ch(st, params, POT, MOB)[0]
    assert abs(out.mean() - st.phi.mean()) <= 1e-12


@pytest.mark.parametrize("k", [1, 3, 7])
def test_step_ch_linear_amplification_factor(k):
    # closed-form amplification of one Neumann cosine mode for the
    # semi-discrete scheme, linearized about phi = 0:
    #   G = (1 + dt c0 lam) / (1 + dt (lam^2 + (F''(0) + c0) lam))
    g = Grid(2, 64)
    params = SolverParams(dt=1e-4)
    lam = (2.0 - 2.0 * np.cos(np.pi * k / g.n)) / g.h**2
    amp = 1e-6
    x = g.cell_centers(0)
    mode = np.cos(np.pi * k * x)[:, None] * np.ones(g.n)[None, :]
    st = make_state(g, amp * mode)
    out = step_ch(st, params, POT, MOB)[0]
    measured = np.vdot(out.data, mode) / np.vdot(st.phi.data, mode)
    fpp0 = -4.0
    oracle = (1 + params.dt * POT.c0 * lam) / (
        1 + params.dt * (lam**2 + (fpp0 + POT.c0) * lam)
    )
    assert abs(measured - oracle) <= 1e-6 * abs(oracle)


def test_step_ns_rest_state(grid32):
    params = SolverParams(dt=1e-4)
    st = make_state(grid32, np.full(grid32.cell_shape, 0.7))
    out = step_ns(st, params, chemical_potential(st), None)[0]
    assert out.max_abs() == 0.0


def test_step_ns_kinetic_decay_random_starts(grid16, rng):
    # frozen uniform phi, no forcing: kinetic energy must not grow
    params = SolverParams(nu=1.0, beta=1.0, r=3.0, dt=1e-4)
    for _ in range(100):
        u = solenoidal_vector(grid16, rng)
        st = make_state(grid16, np.full(grid16.cell_shape, 0.2), u=u)
        out = step_ns(st, params, chemical_potential(st), None)[0]
        assert vector_inner(out, out) < vector_inner(u, u)


def _linear_drag_step(state, params, mu_half):
    """The momentum half of a step with a drag linear in u: beta u for r = 1,
    none for beta = 0.  Shared with `step_ns`: the stencils, `convection`
    and the projection.  Not shared: the face drag, the cached state
    stencils and the preconditioned CG; the viscous systems are solved by
    plain Richardson iteration."""
    g = state.u.grid
    dt, nu, beta = params.dt, params.nu, params.beta
    gphi = _grad_arrays(g, state.phi.data)
    force = [cell_to_face(mu_half, c) * gphi[c] for c in range(g.dim)]
    fv = VectorField(g, tuple(force))
    fv.zero_normal_boundaries()
    f_proj, _, _ = helmholtz_project_with_potential(fv, RESIDUAL_TOL)
    conv = convection(state.u, state.u)
    comps = []
    for c in range(g.dim):
        b = state.u.components[c] + dt * (f_proj.components[c] - conv.components[c])
        x = state.u.components[c].copy()
        for _ in range(4000):  # plain Richardson on the SPD system
            res = b - ((1 + dt * beta) * x - dt * nu * _lap_component_arr(g, x, c))
            x = x + res / (1 + dt * beta + 4 * g.dim * dt * nu / g.h**2)
            if np.abs(res).max() < 1e-14:
                break
        comps.append(x)
    tilde = VectorField(g, tuple(comps))
    tilde.zero_normal_boundaries()
    return helmholtz_project(tilde, RESIDUAL_TOL)[0]


def test_step_ns_r1_matches_linear_drag(rng):
    # r = 1 collapses |u|^{r-1} to 1 and beta = 0 drops the drag: in both the
    # momentum step is linear in u^{n+1}.  Twenty coupled steps against
    # `_linear_drag_step` in lockstep, each side feeding its own state's
    # mu^{n+1/2} from `step_ch`, in 2D and 3D
    t0 = time.perf_counter()
    for dim, n in ((2, 16), (3, 8)):
        g = Grid(dim, n)
        for r, beta in ((1.0, 1.3), (3.0, 0.0)):
            params = SolverParams(nu=0.7, beta=beta, r=r, dt=1e-4)
            phi = 0.2 + 0.05 * rng.uniform(-1, 1, g.cell_shape)
            u = solenoidal_vector(g, rng)
            st, ref = make_state(g, phi, u=u), make_state(g, phi, u=u)
            diff = 0.0
            for _ in range(20):
                st, _ = step_coupled(st, params, POT, MOB)
                phi_new, mu_half, _ = step_ch(ref, params, POT, MOB)
                ref = make_state(g, phi_new.data, u=_linear_drag_step(ref, params, mu_half))
                pairs = zip(st.u.components, ref.u.components)
                diff = max(diff, *(np.abs(a - b).max() for a, b in pairs))
            assert diff <= 1e-12, (dim, r, beta, diff)
    wall = time.perf_counter() - t0
    assert wall <= 2.0, f"four 20-step lockstep runs took {wall:.2f}s (budget 2s)"


@pytest.mark.parametrize("pot, mob", [
    (POT, MOB), (logarithmic_potential(), regularize_mobility(degenerate_mobility(1), 0.1)),
], ids=["regular-constant", "log-clamped"])
def test_coupled_steps_keep_fluid_at_rest_under_a_one_dimensional_phi(pot, mob):
    # phi varies in x only and u = 0: mu grad phi is then a pure gradient,
    # which the force projection removes, so ten coupled steps leave the
    # fluid at rest.  An unprojected force would drive it through the
    # no-slip viscous solve
    for dim, n in ((2, 16), (3, 8)):
        g = Grid(dim, n)
        x = g.cell_centers(0).reshape((-1,) + (1,) * (dim - 1))
        phi = (0.3 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x)) * np.ones(g.cell_shape)
        for r, beta in ((1.0, 1.3), (3.0, 1.0), (3.0, 0.0)):
            params = SolverParams(nu=0.7, beta=beta, r=r, dt=1e-4)
            st = make_state(g, phi)
            for _ in range(10):
                st, _ = step_coupled(st, params, pot, mob)
            assert st.u.max_abs() <= 1e-14, (dim, r, beta, st.u.max_abs())


@pytest.mark.parametrize(
    "r, beta, still", [(1.0, 1.3, False), (3.0, 0.0, False), (3.0, 1.0, True)]
)
def test_viscous_solve_constant_drag_takes_one_iteration(r, beta, still, grid32, monkeypatch):
    # r = 1, beta = 0 or u = 0 make the drag constant; the sine-transform
    # preconditioner is then the exact inverse and PCG stops after one step.
    # A PCG solve of k >= 1 iterations applies the preconditioner
    # (`_face_inverse`) k times, so each component's "C" is followed by one "P"
    rng = np.random.default_rng(7)
    log = []
    spy(monkeypatch, log, "C", "_cg_component", chns.solver)
    spy(monkeypatch, log, "P", "_face_inverse", chns.solver)
    params = SolverParams(nu=0.7, beta=beta, r=r, dt=1e-4)
    u = None if still else solenoidal_vector(grid32, rng)
    st = make_state(grid32, 0.2 + 0.05 * rng.uniform(-1, 1, grid32.cell_shape), u=u)
    step_ns(st, params, chemical_potential(st), None)
    assert "".join(log) == "CP" * 2


def test_viscous_solve_stall_is_reported(grid32, rng, monkeypatch):
    # with a rough drag the mid-range preconditioner is not the inverse, so
    # one iteration cannot solve a 32^2 component system
    monkeypatch.setattr(chns.solver, "MAX_VISCOUS_ITERS", 1)
    params = SolverParams(nu=0.7, beta=1.0, r=3.0, dt=1e-3)
    b = rand_vector(grid32, rng).components[0]
    drag = 100.0 * rng.uniform(0.0, 1.0, b.shape) ** 3
    x0 = np.zeros_like(b)
    with pytest.raises(StepError, match="implicit velocity solve stalled"):
        _cg_component(grid32, 0, b, x0, x0, drag, params)


@pytest.mark.filterwarnings("error")
def test_viscous_solve_rejects_non_finite_rhs(grid32, rng):
    # ||b|| overflows to inf, and inf <= 1e-12 * inf would accept x0
    b = 1e200 * rand_vector(grid32, rng).components[0]
    x0 = np.zeros_like(b)
    with pytest.raises(StepError, match="implicit velocity solve: right-hand side norm is inf"):
        _cg_component(grid32, 0, b, x0, x0, np.ones_like(b), SolverParams(dt=1e-3))


def _momentum_stencil(grid, c, drag, params, z):
    """A z = (1 + dt beta drag) z - dt nu Lap_c z, with the stencil."""
    dt = params.dt
    return (1.0 + dt * params.beta * drag) * z - dt * params.nu * _lap_component_arr(grid, z, c)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(8, 24),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-6, 1e-2),
    nu=st.floats(0.1, 10.0),
    beta=st.floats(0.0, 10.0),
    dscale=st.floats(0.0, 100.0),
)
@example(dim=2, n=64, seed=64, dt=1e-4, nu=1.0, beta=1.0, dscale=1.0)
@example(dim=2, n=128, seed=128, dt=1e-4, nu=1.0, beta=1.0, dscale=1.0)
@example(dim=3, n=32, seed=32, dt=1e-4, nu=1.0, beta=1.0, dscale=1.0)
def test_momentum_operator_times_preconditioner_needs_no_laplacian(
    dim, n, seed, dt, nu, beta, dscale
):
    # P, the exact inverse of A at the mid-range drag dbar, is built here
    # from the sine-basis solve; A = P^{-1} + e with e = dt beta (drag - dbar)
    # diagonal, so the stencil A (P r) equals r + e (P r) for every r with
    # zero wall faces, and `_cg_component`, built on that product and its
    # direction recurrence, solves A x = r
    grid = Grid(dim, n)
    rng = np.random.default_rng(seed)
    params = SolverParams(nu=nu, beta=beta, r=3.0, dt=dt)
    for c in range(dim):
        drag = dscale * rng.uniform(0.0, 1.0, grid.face_shape(c)) ** 3
        r = rand_vector(grid, rng).components[c]
        dbar = 0.5 * (float(drag.min()) + float(drag.max()))
        shift = 1.0 + dt * beta * dbar
        z = _face_inverse(grid, c, r, shift, shift + dt * nu * _face_symbol(grid, c),
                          np.empty(r.shape))
        resid = _momentum_stencil(grid, c, drag, params, z) - (r + dt * beta * (drag - dbar) * z)
        # roundoff of the solve and the stencil times the condition number
        # kappa of A, whose smallest eigenvalue is at least 1: 1e-12
        # relative where kappa <= 100
        kappa = 1.0 + dt * beta * float(drag.max()) + dt * nu * 4.0 * dim / grid.h**2
        assert np.linalg.norm(resid) <= 1e-14 * max(100.0, kappa) * np.linalg.norm(r)
        zero = np.zeros_like(r)
        x, _ = _cg_component(grid, c, r, zero, zero, drag, params)
        resid = r - _momentum_stencil(grid, c, drag, params, x)
        assert np.linalg.norm(resid) <= (1e-12 + 1e-14 * max(100.0, kappa)) * np.linalg.norm(r)


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 12)])
def test_viscous_solve_true_residual(dim, n, monkeypatch):
    # the CG tracks A p by a recurrence, never by the stencil; the residual
    # computed with the stencil must meet the solve's tolerance all the same.
    # Rough r = 3 data make the drag vary, so each solve iterates
    grid = Grid(dim, n)
    rng = np.random.default_rng(11)
    params = SolverParams(nu=0.7, beta=1.0, r=3.0, dt=1e-3)
    u = solenoidal_vector(grid, rng)
    state = make_state(grid, 0.2 + 0.05 * rng.uniform(-1, 1, grid.cell_shape), u=u)
    drag = chns.solver._face_drag(u, params.r, center_components(u))
    solves = []

    def recorded(g, c, b, x0, lap_x0, drag_c, p):
        x, it = _cg_component(g, c, b, x0, lap_x0, drag_c, p)
        solves.append((b, x, it))
        return x, it

    monkeypatch.setattr(chns.solver, "_cg_component", recorded)
    step_ns(state, params, chemical_potential(state), None)
    assert len(solves) == dim
    for c, (b, x, it) in enumerate(solves):
        assert it >= 2
        resid = b - _momentum_stencil(grid, c, drag[c], params, x)
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(b)


def test_non_finite_state_names_its_field(grid16, rng):
    state = make_state(grid16, 0.1 * rng.standard_normal(grid16.cell_shape))
    state.check_finite()
    state.pi.data[3, 4] = np.nan
    with pytest.raises(StepError, match="field pi is not finite"):
        state.check_finite()
    state.u.components[1][2, 2] = np.inf
    with pytest.raises(StepError, match="field u is not finite"):
        state.check_finite()


def test_damping_pairing_identities(grid16, rng):
    u = rand_vector(grid16, rng)
    assert damping_pairing(u, u, 3.0) == 0.0
    # u2 = 0 collapses the pairing to the L^{r+1} norm power
    for r in (1.0, 2.0, 3.5):
        cc = center_components(u)
        mags = np.sqrt(sum(a * a for a in cc))
        expected = float(np.sum(mags ** (r + 1.0))) * grid16.cell_volume
        got = damping_pairing(u, VectorField.zeros(grid16), r)
        assert got == pytest.approx(expected, rel=1e-13)
        assert got >= 0.0


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 4.0, 5.0])
def test_damping_pairing_monotone(r, grid16, rng):
    worst = 0.0
    for _ in range(200):
        u1 = rand_vector(grid16, rng)
        u2 = rand_vector(grid16, rng)
        worst = min(worst, damping_pairing(u1, u2, r))
    assert worst >= -1e-12


def test_damping_pairing_rejects_small_r(grid16, rng):
    with pytest.raises(ParameterError):
        damping_pairing(rand_vector(grid16, rng), rand_vector(grid16, rng), 0.9)


def test_inner_iteration_failure_carries_history(grid32, rng, monkeypatch):
    monkeypatch.setattr(chns.solver, "MAX_INNER_ITERS", 1)
    params = SolverParams(dt=1e-3)
    phi = 0.4 * rng.uniform(-1, 1, grid32.cell_shape)
    st = make_state(grid32, phi)
    with pytest.raises(StepError, match=r"CH inner iteration exceeded 1 iterations \(residual ") as err:
        step_ch(st, params, POT, MOB)
    assert len(err.value.residual_history) >= 1


def test_ch_solve_rejects_non_finite_phi(grid32, rng):
    # a nan residual fails every `rn > tol` test, so the CH phase has to
    # reject it before the momentum phase sees a nan phi
    phi = 0.1 * rng.uniform(-1, 1, grid32.cell_shape)
    phi[3, 5] = np.nan
    with pytest.raises(StepError, match="CH inner iteration: initial residual is nan"):
        step_ch(make_state(grid32, phi), SolverParams(dt=1e-4), POT, MOB)


def _rough_log_step(grid):
    # rough data near the pure phases: the CH fixed point stalls on the
    # first step and hands over to Newton-GMRES (the rough epsilon_sweep
    # companion of test_newton_fallback_fires_on_rough_epsilon_sweep)
    pot = logarithmic_potential()
    st = initial_state(grid, 0.0, 0.8, seed=1234, velocity="zero")
    return st, SolverParams(dt=1e-4), pot, regularize_mobility(degenerate_mobility(1), 0.2)


def test_steps_call_numpy_norm_only_through_gmres(grid32, monkeypatch):
    # a step's norms go through grid._norm, numpy's arithmetic without its
    # wrapper; the GMRES port keeps scipy's np.linalg.norm calls
    log = []
    for name in ("norm", "gmres"):
        spy(monkeypatch, log, name, name, np.linalg if name == "norm" else chns.solver)
    sim = build_simulation(parse_config("grid.n = 16\ninit.velocity = vortex\n"))
    for _ in range(3):
        sim.step()
    assert log == []
    step_ch(*_rough_log_step(grid32))
    assert "gmres" in log and log.count("norm") > log.count("gmres")


def test_ch_newton_solve_failure_is_reported(grid32, monkeypatch):
    monkeypatch.setattr(chns.solver, "gmres", lambda op, b, **kw: (np.zeros_like(b), 1))
    with pytest.raises(StepError, match=r"CH inner Newton solve failed \(gmres info=1\)") as err:
        step_ch(*_rough_log_step(grid32))
    assert len(err.value.residual_history) >= 1


def test_ch_newton_stall_is_reported(grid32, monkeypatch):
    # a zero Newton step leaves the residual where it is, so no damped
    # trial is accepted
    monkeypatch.setattr(chns.solver, "gmres", lambda op, b, **kw: (np.zeros_like(b), 0))
    with pytest.raises(StepError, match="CH inner iteration stalled") as err:
        step_ch(*_rough_log_step(grid32))
    assert len(err.value.residual_history) >= 1


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(8, 24),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-6, 1e-2),
    mbar=st.floats(0.1, 10.0),
    sigma=st.floats(0.0, 10.0),
)
@example(dim=2, n=64, seed=64, dt=1e-4, mbar=1.0, sigma=2.0)
@example(dim=2, n=128, seed=128, dt=1e-4, mbar=1.0, sigma=2.0)
@example(dim=3, n=32, seed=32, dt=1e-4, mbar=1.0, sigma=2.0)
def test_ch_preconditioner_is_exact_inverse(dim, n, seed, dt, mbar, sigma):
    from scipy.fft import dctn, idctn

    grid = Grid(dim, n)
    y = np.random.default_rng(seed).standard_normal(grid.cell_shape)
    x = _ch_preconditioner(grid, dt, mbar, sigma)(y)
    lx = -_lap_arr(grid, x)
    resid = x + dt * mbar * (-_lap_arr(grid, lx) + sigma * lx) - y
    # a backward-stable solve leaves roundoff times the condition number
    # kappa, the largest value of the symbol 1 + dt mbar (lam^2 + sigma lam)
    # (lam the -Laplacian's eigenvalues; the smallest value is 1, at the
    # constant mode): 1e-12 relative where kappa <= 100
    lam = chns.poisson._neumann_symbol(grid)
    sym = 1.0 + dt * mbar * (lam * lam + sigma * lam)
    kappa = float(sym.max())
    assert np.linalg.norm(resid) <= 1e-14 * max(100.0, kappa) * np.linalg.norm(y)
    # sym >= 1, so an exact inverse has norm <= 1 and the forward error is
    # measured against |y|
    ref = idctn(dctn(y, type=2, norm="ortho") / sym, type=2, norm="ortho")
    assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(y)


def test_slow_fixed_point_hands_over_to_newton(grid16, monkeypatch):
    # a tenth of the exact inverse makes every fixed-point iteration accepted
    # at full step but contract by only about 0.9, so the CH solve switches
    # to Newton-GMRES for slow convergence, not for a rejected line search
    st = initial_state(grid16, 0.0, 0.3, seed=7, velocity="vortex", velocity_amp=0.5)
    params = SolverParams(dt=1e-3)
    phi_ref = step_ch(st, params, POT, MOB)[0].data
    events = []
    build = chns.solver._ch_preconditioner

    def weak_build(*args):
        apply = build(*args)
        return lambda y: 0.1 * apply(y)

    monkeypatch.setattr(chns.solver, "_ch_preconditioner", weak_build)
    # one potential_deriv per iteration, one potential_convex_deriv per
    # residual evaluated
    for name, tag in (("potential_deriv", "D"), ("potential_convex_deriv", "C"),
                      ("gmres", "G")):
        spy(monkeypatch, events, tag, name, chns.solver)
    st = initial_state(grid16, 0.0, 0.3, seed=7, velocity="vortex", velocity_amp=0.5)
    phi_new = step_ch(st, params, POT, MOB)[0].data
    assert "G" in events
    before = "".join(events[:events.index("G")])
    # the initial residual, then one accepted trial per fixed-point iteration
    iters = before.count("D") - 1
    assert iters >= 6 and before == "C" + "DC" * iters + "D"
    assert abs(phi_new.mean() - st.phi.data.mean()) <= 1e-16
    assert np.abs(phi_new - phi_ref).max() <= 1e-8


def test_steady_slow_contraction_hands_over_to_newton(monkeypatch):
    # mobility n = 2 on rough data: the fixed point halves the residual every
    # five iterations, but at that rate it cannot reach tol in the iterations
    # left, so the CH solve switches to Newton-GMRES instead of exceeding
    # MAX_INNER_ITERS
    sim = build_simulation(parse_config(
        "grid.n = 32\ntime.dt = 1e-4\npotential.kind = regularized\npotential.epsilon = 0.2\n"
        "mobility.kind = clamped\nmobility.epsilon = 0.2\nmobility.n = 2\n"
        "init.noise_amp = 0.8\n"
    ))
    fired = []
    spy(monkeypatch, fired, 1, "gmres", chns.solver)
    sim.run(n_steps=2)
    assert fired
    assert ledger_mass_drift(sim.ledger) <= 1e-12


def test_newton_operators_are_not_probed(grid32, monkeypatch):
    # the Newton operator and the preconditioner are applied inside the
    # gmres call only, never to probe them beforehand (as scipy's
    # LinearOperator once did to infer a dtype).  Only the Newton matvec
    # calls _lap_arr, and every preconditioner apply calls dctn once, so
    # between an iteration's start (its potential_deriv) and its gmres call
    # nothing may be applied.
    events = []
    for name, tag in (("potential_deriv", "D"), ("_lap_arr", "A"), ("dctn", "P")):
        spy(monkeypatch, events, tag, name, chns.solver)
    gmres = chns.solver.gmres

    def bracketed(*args, **kwargs):
        events.append("(")
        out = gmres(*args, **kwargs)
        events.append(")")
        return out

    monkeypatch.setattr(chns.solver, "gmres", bracketed)
    step_ch(*_rough_log_step(grid32))
    log = "".join(events)
    assert log.count("(") >= 1
    for pos in (i for i, tag in enumerate(log) if tag == "("):
        assert log[log.rindex("D", 0, pos) + 1:pos] == ""
    inside = "".join(log[i + 1:log.index(")", i)] for i, tag in enumerate(log) if tag == "(")
    # the CH operator is applied by gmres only, and gmres applies both
    assert log.count("A") == inside.count("A") >= 1 and inside.count("P") >= 1


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def test_lartg_matches_lapack():
    from scipy.linalg import get_lapack_funcs

    lartg = get_lapack_funcs("lartg", dtype=np.float64)
    rng = np.random.default_rng(2017)
    # signed zeros, mixed signs, magnitudes 1e+-8, and 1e+-300, outside
    # (sqrt(safe minimum), sqrt(safe maximum / 2)), where dlartg scales
    values = [0.0, -0.0]
    for scale in (1.0, 1e8, 1e-8, 1e300, 1e-300):
        values += list(scale * rng.standard_normal(8))
    for f in values:
        for g in values:
            assert _bits(_lartg(f, g)) == _bits(lartg(f, g)), (f, g)
    pairs = rng.choice([-1.0, 1.0], (200_000, 2)) * 10.0 ** rng.uniform(-300, 300, (200_000, 2))
    for f, g in pairs.tolist():
        assert _bits(_lartg(f, g)) == _bits(lartg(f, g)), (f, g)


def _same_as_scipy(A, b, **kw):
    """(whether `gmres` returns the x and info of scipy's gmres with
    atol = 0 in every bit, info); scipy runs on the same callables."""
    from scipy.sparse.linalg import LinearOperator
    from scipy.sparse.linalg import gmres as scipy_gmres

    n = b.size
    x, info = gmres(A, b, **kw)
    xs, info_s = scipy_gmres(LinearOperator((n, n), matvec=A, dtype=float), b, atol=0.0,
                             **{**kw, "M": LinearOperator((n, n), matvec=kw["M"], dtype=float)})
    return np.array_equal(x, xs) and info == info_s, info


def test_gmres_matches_scipy_on_random_systems():
    rng = np.random.default_rng(1986)
    infos = set()
    for _ in range(400):
        n = int(rng.integers(2, 61))
        a = np.eye(n) + rng.uniform(0.05, 1.0) / n**0.5 * rng.standard_normal((n, n))
        d = rng.uniform(0.5, 2.0, n)  # a diagonal preconditioner
        same, info = _same_as_scipy(
            lambda v: a @ v, rng.standard_normal(n), M=lambda v: d * v,
            rtol=10.0 ** rng.uniform(-12, -2), restart=int(rng.integers(1, 13)),
            maxiter=int(rng.integers(1, 9)),
        )
        assert same
        infos.add(info)
    assert 0 in infos and len(infos) >= 5


@pytest.mark.filterwarnings("error")
def test_gmres_breakdown_matches_scipy():
    # b = 1 spans a 2-dimensional Krylov space of diag(1, 2), and every
    # operation is exact in binary, so the second Arnoldi step's
    # orthogonalized image is exactly 0: the breakdown exit, which must not
    # normalize it (1 / 0 warns)
    d = np.repeat([1.0, 2.0], 8)
    calls = []

    def A(v):
        calls.append(1)
        return d * v

    same, info = _same_as_scipy(A, np.ones(16), M=lambda v: 1.0 * v, rtol=1e-12,
                                restart=12, maxiter=4)
    assert same and info == 0
    assert len(calls) == 2 * 3  # each solver: two Arnoldi steps and the final residual


def test_gmres_out_of_cycles_matches_scipy():
    # a quarter turn in each coordinate plane maps every v to A v with
    # <v, A v> = 0 exactly, so GMRES(1) never moves off x = 0
    n = 40
    rot = np.kron(np.eye(n // 2), [[0.0, -1.0], [1.0, 0.0]])
    b = np.random.default_rng(856).standard_normal(n)
    same, info = _same_as_scipy(lambda v: rot @ v, b, M=lambda v: 1.0 * v, rtol=1e-6,
                                restart=1, maxiter=5)
    assert same and info == 5


@pytest.mark.filterwarnings("error")
def test_gmres_zero_operator_matches_scipy():
    # A = 0 breaks down at the first Arnoldi step with h[0, 0] = 0, the
    # singular Hessenberg diagonal whose back-substitution zeroes S[0]
    b = np.random.default_rng(231).standard_normal(12)
    same, info = _same_as_scipy(lambda v: 0 * v, b, M=lambda v: 1.0 * v, rtol=1e-8,
                                restart=4, maxiter=3)
    assert same and info == 3


def test_gmres_matches_scipy_on_the_newton_systems(grid32, monkeypatch):
    results = []
    spy(monkeypatch, results, _same_as_scipy, "gmres", chns.solver)
    step_ch(*_rough_log_step(grid32))
    assert len(results) >= 1 and all(same for same, _ in results)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1) | st.integers(0, 2**256),
    shape=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
    low=st.floats(-1e6, 1e6),
    width=st.floats(0.0, 1e6),
)
@example(seed=0, shape=(1,), low=-1.0, width=2.0)
@example(seed=2**32 - 1, shape=(7, 5), low=-1.0, width=2.0)
@example(seed=2**32, shape=(32, 32, 32), low=-1.0, width=2.0)
@example(seed=2**64 + 1, shape=(1,), low=0.0, width=1.0)
@example(seed=2**200, shape=(33, 17), low=-3.5, width=5.5)
@example(seed=1234, shape=(128, 128), low=-1.0, width=2.0)
def test_uniform_port_matches_numpy_bit_for_bit(seed, shape, low, width):
    # the port replaces numpy's SeedSequence, PCG64 and uniform double: the
    # seed's words past the 4-word pool (2^200), a block jump-ahead whose
    # last block is partial (odd shapes) and the 128-bit carries all show up
    # as a differing bit.  numpy refuses high - low < 0, -0.0 included
    high = low + width
    ref = np.random.default_rng(seed).uniform(low, high, shape)
    got = _uniform(seed, low, high, shape)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_uniform_port_draws_128_squared_within_budget():
    # about 1 ms on a 2-core box, against 0.1 ms for numpy's compiled
    # generator; the budget leaves room for a loaded machine
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _uniform(1234, -1.0, 1.0, (128, 128))
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.02


def test_initial_state_rejects_a_negative_seed(grid16):
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
        initial_state(grid16, seed=-1)


def test_initial_state_rejects_unknown_velocity(grid16):
    with pytest.raises(ParameterError, match="unknown initial velocity kind 'shear'"):
        initial_state(grid16, velocity="shear")


def test_cg_returns_a_start_that_already_solves(grid16, rng, monkeypatch):
    # a constant drag makes the preconditioner the exact inverse, so x0 = P b
    # meets the stopping test before any iteration and P is never applied
    params = SolverParams(dt=1e-3, r=1.0)
    b = rand_vector(grid16, rng).components[0]
    shift = 1.0 + params.dt * params.beta
    denom = shift + params.dt * params.nu * _face_symbol(grid16, 0)
    x0 = _face_inverse(grid16, 0, b, shift, denom, np.empty(b.shape))
    applied = []
    spy(monkeypatch, applied, "P", "_face_inverse", chns.solver)
    x, its = _cg_component(grid16, 0, b, x0, _lap_component_arr(grid16, x0, 0),
                           np.ones_like(b), params)
    assert its == 0 and applied == []
    assert np.array_equal(x, x0) and x is not x0


def test_ch_preconditioner_transforms_through_dctn(grid32, monkeypatch):
    # bench/layers.py counts calls of the module-level solver.dctn as
    # preconditioner applies, so each apply must call it exactly once; the
    # rough data sends the CH solve through both the fixed point and the
    # Newton-GMRES fallback
    log = []
    build = chns.solver._ch_preconditioner

    def counted_build(*args):
        apply = build(*args)
        return lambda y: log.append("apply") or apply(y)

    monkeypatch.setattr(chns.solver, "_ch_preconditioner", counted_build)
    for name in ("dctn", "gmres"):
        spy(monkeypatch, log, name, name, chns.solver)
    step_ch(*_rough_log_step(grid32))
    calls = {name: log.count(name) for name in ("dctn", "apply", "gmres")}
    assert calls["gmres"] >= 1 and calls["apply"] > calls["gmres"]
    assert calls["dctn"] == calls["apply"]


def test_cfl_guard_triggers(grid16):
    params = SolverParams(dt=1.0)
    u = vortex_field(grid16, 1.0)
    st = make_state(grid16, np.zeros(grid16.cell_shape), u=u)
    with pytest.raises(StepError) as err:
        step_coupled(st, params, POT, MOB)
    assert "CFL" in str(err.value)


def test_coupled_zero_data_stays_zero(grid16):
    params = SolverParams(dt=1e-4)
    st = make_state(grid16, np.zeros(grid16.cell_shape))
    new, rec = step_coupled(st, params, POT, MOB)
    assert np.abs(new.phi.data).max() == 0.0
    assert new.u.max_abs() == 0.0
    assert rec.mass == 0.0 and rec.kinetic == 0.0 and rec.interfacial == 0.0
    assert rec.visc_diss == 0.0 and rec.damp_diss == 0.0 and rec.mob_diss == 0.0
    assert rec.bulk == pytest.approx(1.0, abs=1e-12)  # F(0) = 1 on the unit box


def test_coupled_energy_monotone_and_mass(grid32):
    params = SolverParams(nu=1.0, beta=1.0, r=3.0, dt=1e-4, t_final=1.0)
    st = initial_state(grid32, 0.1, 0.05, seed=5, velocity="vortex", velocity_amp=0.2)
    sim = Simulation(grid32, params, POT, MOB, st)
    sim.run(n_steps=200)
    assert ledger_energy_rise(sim.ledger) <= 1e-12 * sim.ledger.records[0].energy
    assert ledger_mass_drift(sim.ledger) <= 1e-12
    assert ledger_div_max(sim.ledger) <= 10 * RESIDUAL_TOL


def test_coupled_energy_bounded_by_work_under_forcing(grid32):
    # with forcing, the energy gain never exceeds the accumulated work
    # (the defect is the scheme's own dissipation, which is nonnegative)
    for dt in (2e-4, 1e-4):
        params = SolverParams(
            nu=1.0, beta=1.0, r=2.0, dt=dt, t_final=1.0,
            forcing=ForcingSpec(kind="steady", amplitude=0.5),
        )
        st = initial_state(grid32, 0.0, 0.05, seed=5, velocity="zero")
        sim = Simulation(grid32, params, POT, MOB, st)
        sim.run(n_steps=int(round(0.02 / dt)))
        recs = sim.ledger.records
        gain = recs[-1].energy - recs[0].energy
        work = sum(r.work for r in recs[1:]) * dt
        assert gain <= work + 1e-12 * max(1.0, recs[0].energy)


def test_logarithmic_run_stays_in_domain(grid32):
    pot = logarithmic_potential()
    mob = regularize_mobility(degenerate_mobility(1), 0.1)
    params = SolverParams(dt=1e-4)
    st = initial_state(grid32, 0.0, 0.05, seed=3, velocity="zero")
    sim = Simulation(grid32, params, pot, mob, st)
    sim.run(n_steps=50)
    assert max(r.phi_max for r in sim.ledger.records) < 1.0


def test_regularized_potential_run(grid32):
    pot = regularize_potential(logarithmic_potential(), 0.1)
    mob = regularize_mobility(degenerate_mobility(1), 0.1)
    params = SolverParams(dt=1e-4)
    st = initial_state(grid32, 0.2, 0.05, seed=3, velocity="vortex", velocity_amp=0.1)
    sim = Simulation(grid32, params, pot, mob, st)
    sim.run(n_steps=30)
    assert ledger_energy_rise(sim.ledger) <= 1e-12 * max(sim.ledger.records[0].energy, 1.0)
    assert ledger_mass_drift(sim.ledger) <= 1e-12


def test_forcing_spec_kinds(grid16):
    zero = ForcingSpec()
    assert zero.sample(grid16, 0.3) is None
    steady = ForcingSpec(kind="steady", amplitude=0.5)
    f1 = steady.sample(grid16, 0.0)
    f2 = steady.sample(grid16, 1.0)
    assert np.allclose(f1.components[0], f2.components[0])
    wave = ForcingSpec(kind="time_profile", amplitude=0.5, omega=np.pi)
    g1 = wave.sample(grid16, 0.5)
    assert np.allclose(g1.components[0], np.sin(np.pi * 0.5) * f1.components[0])
    with pytest.raises(ParameterError):
        ForcingSpec(kind="nope", amplitude=1.0).sample(grid16, 0.0)


def test_steady_forcing_pattern_is_built_once(grid16):
    # the pattern is memoized per (grid, amplitude) and shared read-only;
    # time_profile scales it into new arrays
    steady = ForcingSpec(kind="steady", amplitude=0.5)
    f1, f2 = steady.sample(grid16, 0.0), steady.sample(grid16, 1.0)
    wave = ForcingSpec(kind="time_profile", amplitude=0.5, omega=np.pi)
    g1 = wave.sample(grid16, 0.5)
    for a, b, g in zip(f1.components, f2.components, g1.components):
        assert a is b and not a.flags.writeable
        assert g is not a and g.flags.writeable
    for a, v in zip(f1.components, vortex_field(grid16, 0.5).components):
        assert a.tobytes() == v.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        f1.components[0][1, 1] = 0.0


def test_forcing_spec_rejects_unknown_kind():
    # a typo must not run silently unforced (amplitude 0) or fail at the first step
    for amplitude in (0.0, 1.0):
        with pytest.raises(ParameterError, match="stedy"):
            ForcingSpec(kind="stedy", amplitude=amplitude)


def test_forcing_is_sampled_once_per_step(grid16, monkeypatch):
    # the momentum step and the work column share one sample at t + dt;
    # the t = 0 record has zero work and samples nothing
    calls = []
    spy(monkeypatch, calls, lambda self, grid, t: t, "sample", ForcingSpec)
    params = SolverParams(dt=1e-4, forcing=ForcingSpec(kind="time_profile", amplitude=5.0))
    st = initial_state(grid16, 0.0, 0.05, seed=3, velocity="vortex")
    sim = Simulation(grid16, params, POT, MOB, st)
    sim.run(n_steps=3)
    assert calls == [rec.t for rec in sim.ledger.records[1:]]
    assert all(rec.work != 0.0 for rec in sim.ledger.records[1:])


def test_three_dimensional_step(rng):
    g = Grid(3, 8)
    params = SolverParams(dt=1e-4)
    st = initial_state(g, 0.0, 0.05, seed=2, velocity="vortex", velocity_amp=0.1)
    sim = Simulation(g, params, POT, MOB, st)
    sim.run(n_steps=5)
    assert ledger_mass_drift(sim.ledger) <= 1e-12
    assert ledger_energy_rise(sim.ledger) <= 1e-12 * sim.ledger.records[0].energy


# ---------------------------------------------------------------------------
# stencils carried through a step

CACHE_CASES = [
    (2, 32, POT, MOB),
    (3, 8, POT, MOB),
    (2, 32, logarithmic_potential(), regularize_mobility(degenerate_mobility(1), 0.1)),
    (3, 8, logarithmic_potential(), regularize_mobility(degenerate_mobility(1), 0.1)),
]


def _assert_caches_exact(state, pot, mob):
    # every cache a step filled equals the same quantity built afresh
    grid = state.phi.grid
    assert state.materials == (pot, mob)
    state.faces_mobility(pot, mob)  # a clamped mobility's faces wait for the next step
    fresh = {
        "grad_phi": _grad_arrays(grid, state.phi.data),
        "lap_u": [_lap_component_arr(grid, a, c) for c, a in enumerate(state.u.components)],
        "lap_phi": [_lap_arr(grid, state.phi.data)],
        "centers": center_components(state.u),
        "mu_convex": [-_lap_arr(grid, state.phi.data)
                      + potential_convex_deriv(pot, state.phi.data)],
        "m_faces": [cell_to_face(mobility_value(mob, state.phi.data), c) for c in range(grid.dim)],
    }
    for name, arrays in fresh.items():
        cached = getattr(state, name)
        cached = [cached] if isinstance(cached, np.ndarray) else cached
        assert len(cached) == len(arrays), name
        for a, b in zip(cached, arrays):
            assert a.tobytes() == b.tobytes(), name
    assert not any(f.flags.writeable for f in state.m_faces)
    faces = fresh["m_faces"]
    mid = 0.5 * (min(float(f.min()) for f in faces) + max(float(f.max()) for f in faces))
    assert state.mobility_mid(pot, mob) == mid


def _bare(state):
    return State(state.t, state.u, state.phi, state.pi)


def _assert_steps_equal(out1, out2):
    (s1, rec1), (s2, rec2) = out1, out2
    assert rec1 == rec2
    pairs = [(s1.phi.data, s2.phi.data), (s1.pi.data, s2.pi.data)]
    pairs += list(zip(s1.u.components, s2.u.components))
    for a, b in pairs:
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "dim, n, pot, mob", CACHE_CASES, ids=["2d-regular", "3d-regular", "2d-log", "3d-log"]
)
def test_step_caches_are_exact_and_optional(dim, n, pot, mob):
    grid = Grid(dim, n)
    params = SolverParams(dt=1e-4)
    st = initial_state(grid, 0.0, 0.05, seed=5, velocity="vortex", velocity_amp=0.1)
    sim = Simulation(grid, params, pot, mob, st)
    sim.run(n_steps=3)
    state = sim.state
    _assert_caches_exact(state, pot, mob)

    with pytest.raises(TypeError):  # the caches are keyword-only
        State(state.t, state.u, state.phi, state.pi, state.grad_phi)
    cached, bare = state, _bare(state)
    for _ in range(2):  # every cache dropped: the same bits, step after step
        cached_out = step_coupled(cached, params, pot, mob)
        bare_out = step_coupled(bare, params, pot, mob)
        _assert_steps_equal(cached_out, bare_out)
        # what only that step reads is dropped from the stepped state
        assert cached.lap_phi is None and cached.mu_convex is None and cached.centers is None
        cached, bare = cached_out[0], _bare(bare_out[0])
    _assert_caches_exact(cached, pot, mob)


def test_step_caches_ignore_other_materials():
    # a state stepped with new materials steps as one without caches: the
    # convex part of mu and the mobility faces are tagged with (pot, mob)
    grid = Grid(2, 32)
    params = SolverParams(dt=1e-4)
    log = logarithmic_potential()
    changes = [
        ((POT, MOB), (log, regularize_mobility(degenerate_mobility(1), 0.1))),
        (
            (regularize_potential(log, 0.1), regularize_mobility(degenerate_mobility(1), 0.1)),
            (regularize_potential(log, 0.5), regularize_mobility(degenerate_mobility(1), 0.5)),
        ),
    ]
    for (pot, mob), (pot2, mob2) in changes:
        st = initial_state(grid, 0.0, 0.7, seed=5, velocity="vortex", velocity_amp=0.1)
        sim = Simulation(grid, params, pot, mob, st)
        sim.run(n_steps=2)
        state = sim.state
        assert state.mu_convex is not None and state.materials == (pot, mob)
        cached_out = step_coupled(state, params, pot2, mob2)
        _assert_steps_equal(cached_out, step_coupled(_bare(state), params, pot2, mob2))
        _assert_caches_exact(cached_out[0], pot2, mob2)


def test_each_stencil_built_once_per_step(grid32, monkeypatch):
    # r = 1 makes the drag constant, so PCG takes one iteration per
    # component, and on this data the CH solve evaluates its residual three
    # times (phi^n and two accepted iterates).  Per step: each residual
    # builds grad mu (3) and each iterate's grad phi (2), each projection's
    # Poisson residual grad q (2); only the record's Lap_c u^{n+1} builds the
    # component Laplacians (2), since a PCG iteration gets A p without one.
    # The residual at phi^n reads grad phi, Lap phi and -Lap phi + F_c'(phi)
    # from the state, so the convex derivative is built for the two iterates
    # only, and for phi^0 in step 1, whose initial state carries no
    # convex part.
    names = ("_grad_arrays", "_lap_component_arr", "potential_convex_deriv")
    calls = []
    modules = (chns.grid, chns.solver, chns.poisson, chns.diagnostics)
    for name in names:
        spy(monkeypatch, calls, name, name, *(m for m in modules if hasattr(m, name)))
    params = SolverParams(dt=1e-4, r=1.0)
    st = initial_state(grid32, 0.0, 0.05, seed=4242, velocity="vortex", velocity_amp=0.1)
    sim = Simulation(grid32, params, POT, MOB, st)
    for convex in (3, 2, 2):
        calls.clear()
        sim.step()
        assert {name: calls.count(name) for name in names} == {
            "_grad_arrays": 7, "_lap_component_arr": 2, "potential_convex_deriv": convex}


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 8)])
def test_cell_center_velocities_built_once_per_step(dim, n, monkeypatch):
    # per r = 3 step: once for the record's damp_diss of u^{n+1}, which the
    # next step's face drag and convection read; step 1 also builds those
    # of u^0, since the initial record needs none
    calls = []
    spy(monkeypatch, calls, 1, "center_components", chns.grid, chns.solver)
    grid = Grid(dim, n)
    st = initial_state(grid, 0.0, 0.05, seed=4242, velocity="vortex", velocity_amp=0.1)
    sim = Simulation(grid, SolverParams(dt=1e-4, r=3.0), POT, MOB, st)
    for expected in (2, 1, 1):
        calls.clear()
        sim.step()
        assert len(calls) == expected


@pytest.mark.parametrize("clamped", [False, True], ids=["constant", "clamped"])
def test_mobility_faces_built_once_per_step(clamped, monkeypatch):
    # a constant mobility's faces of step 1 serve every later step; clamped
    # faces m(phi^n) are built once, by step n + 1, which reads them twice
    calls = []
    spy(monkeypatch, calls, 1, "_m_faces", chns.solver)
    grid = Grid(2, 32)
    if clamped:
        pot, mob = logarithmic_potential(), regularize_mobility(degenerate_mobility(1), 0.1)
    else:
        pot, mob = POT, MOB
    st = initial_state(grid, 0.0, 0.05, seed=4242, velocity="vortex", velocity_amp=0.1)
    sim = Simulation(grid, SolverParams(dt=1e-4), pot, mob, st)
    assert calls == []  # building the run builds no faces
    for expected in ((1, 1, 1) if clamped else (1, 0, 0)):
        calls.clear()
        sim.step()
        assert len(calls) == expected


def test_initial_record_builds_only_the_state(monkeypatch):
    # the t = 0 record has zero dissipation and work, so building the run
    # needs grad phi (kept for step 1) and neither grad mu, the mobility
    # faces nor the cell-centre velocities
    cfg = parse_config("grid.n = 64\ninit.velocity = vortex\n")
    names = ("_grad_arrays", "center_components", "_m_faces")
    calls = []
    for name in names:
        spy(monkeypatch, calls, name, name, chns.solver)
    sim = build_simulation(cfg)
    assert {name: calls.count(name) for name in names} == {
        "_grad_arrays": 1, "center_components": 0, "_m_faces": 0}
    rec = sim.ledger.records[0]
    assert (rec.visc_diss, rec.damp_diss, rec.mob_diss, rec.work) == (0.0, 0.0, 0.0, 0.0)
    assert rec.kinetic > 0.0 and rec.interfacial > 0.0


@pytest.mark.filterwarnings("error")
def test_overflowing_record_fails_without_a_warning():
    # ||u||_{L^4}^4 of u ~ 1e146 overflows: the record names damp_diss and
    # numpy prints no overflow warning on the way
    cfg = parse_config(
        "grid.n = 16\ntime.dt = 1e-4\nforcing.kind = steady\nforcing.amplitude = 1e150\n"
    )
    sim = build_simulation(cfg)
    with pytest.raises(StepError, match="diagnostics column damp_diss is inf"):
        sim.step()
