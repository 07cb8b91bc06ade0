"""Energy ledger, balance residuals and the H^-1 distance."""

import numpy as np
import pytest

from chns.checks import ledger_energy_rise, ledger_mass_drift, rand_scalar
from chns.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    TrajectoryLedger,
    degenerate_energy_residual,
    energy_balance_residual,
    entropy_functional,
    hminus1_distance,
    overshoot_functional,
)
from chns.errors import PreconditionError
from chns.grid import Grid, ScalarField, VectorField
from chns.materials import (
    EntropyFunction,
    constant_mobility,
    degenerate_mobility,
    logarithmic_potential,
    regular_potential,
    regularize_mobility,
    regularize_potential,
)
from chns.poisson import helmholtz_project
from chns.solver import (
    Simulation,
    SolverParams,
    State,
    vortex_field,
)


POT = regular_potential()
MOB = constant_mobility()


def zero_record(t=0.0, **overrides):
    vals = dict(
        t=t, mass=0.0, kinetic=0.0, interfacial=0.0, bulk=0.0,
        visc_diss=0.0, damp_diss=0.0, mob_diss=0.0, work=0.0,
        div_max=0.0, phi_max=0.0,
    )
    vals.update(overrides)
    return DiagnosticsRecord(**vals)


def test_record_csv_roundtrip():
    rec = zero_record(t=0.25, mass=-0.3, kinetic=1.5e-3, bulk=0.9, phi_max=0.97)
    back = DiagnosticsRecord(*map(float, rec.to_csv_row().split(",")))
    for c in CSV_COLUMNS:
        assert getattr(back, c) == getattr(rec, c)


def test_record_rejects_negative_dissipation():
    with pytest.raises(ValueError):
        zero_record(visc_diss=-1e-10)


@pytest.mark.parametrize("column", ["kinetic", "interfacial", "bulk"])
def test_record_rejects_non_finite_energy(column):
    with pytest.raises(ValueError, match=f"energy entry {column} is not finite"):
        zero_record(**{column: float("nan")})


def test_ledger_spacing_validation():
    led = TrajectoryLedger(dt=0.1)
    led.append(zero_record(0.0))
    led.append(zero_record(0.1))
    with pytest.raises(ValueError):
        led.append(zero_record(0.15))
    with pytest.raises(ValueError):
        led.append(zero_record(0.05))
    assert len(led.records) == 2


def test_ledger_mass_drift_and_energy_rise():
    led = TrajectoryLedger(dt=0.1)
    for k, (mass, bulk) in enumerate([(1.0, 3.0), (1.5, 2.0), (0.25, 2.5)]):
        led.append(zero_record(0.1 * k, mass=mass, bulk=bulk))
    assert ledger_mass_drift(led) == 0.75
    assert ledger_energy_rise(led) == 0.5


def initial_record(state):
    """The t = 0 record a run on ``state`` reports."""
    return Simulation(state.phi.grid, SolverParams(), POT, MOB, state).ledger.records[0]


def test_record_energy_landmarks(grid32):
    # zero state with the quartic well: energy = F(0) |Omega| = 1
    zero = State(
        0.0, VectorField.zeros(grid32), ScalarField.zeros(grid32), ScalarField.zeros(grid32),
    )
    assert initial_record(zero).energy == pytest.approx(1.0, abs=1e-13)
    # pure phase: phi = 1, u = 0 -> zero energy
    phi = ScalarField(grid32, np.ones(grid32.cell_shape))
    one = State(0.0, VectorField.zeros(grid32), phi, ScalarField.zeros(grid32))
    assert initial_record(one).energy == pytest.approx(0.0, abs=1e-13)


def test_kinetic_part_is_quadratic(grid32):
    u = vortex_field(grid32, 0.3)
    phi = ScalarField.zeros(grid32)
    s1 = State(0.0, u, phi, phi)
    u2 = VectorField(grid32, tuple(2.0 * a for a in u.components))
    s2 = State(0.0, u2, phi, phi)
    k1 = initial_record(s1).kinetic
    k2 = initial_record(s2).kinetic
    assert k2 == pytest.approx(4.0 * k1, rel=1e-12)


def test_energy_residual_zero_trajectory():
    led = TrajectoryLedger(dt=0.1)
    for k in range(5):
        led.append(zero_record(0.1 * k))
    assert energy_balance_residual(led) == 0.0
    with pytest.raises(PreconditionError):
        energy_balance_residual(TrajectoryLedger(dt=0.1))


def test_energy_residual_first_order_pure_ns():
    # constant phi makes the transport/diffusion exact; the residual is the
    # momentum scheme's O(dt) defect and must halve with dt
    g = Grid(2, 64)
    res = {}
    for dt in (1e-4, 5e-5):
        phi = ScalarField(g, np.full(g.cell_shape, 0.3))
        u, _ = helmholtz_project(vortex_field(g, 0.5), 1e-12)
        st = State(0.0, u, phi, ScalarField.zeros(g))
        params = SolverParams(nu=0.5, beta=1.0, r=3.0, dt=dt, t_final=0.05)
        sim = Simulation(g, params, POT, MOB, st)
        sim.run()
        res[dt] = energy_balance_residual(sim.ledger)
    assert res[5e-5] < res[1e-4]
    assert 1.7 <= res[1e-4] / res[5e-5] <= 2.3


def test_degenerate_residual_preconditions():
    led = TrajectoryLedger(dt=0.1)
    led.append(zero_record(0.0))
    log = logarithmic_potential()
    clamped = regularize_mobility(degenerate_mobility(1), 0.1)
    with pytest.raises(PreconditionError):
        degenerate_energy_residual(led, POT, clamped)
    with pytest.raises(PreconditionError):
        degenerate_energy_residual(led, log, MOB)
    with pytest.raises(PreconditionError):
        degenerate_energy_residual(led, log, clamped)  # extras missing


def test_extras_only_for_degenerate_identity_runs(grid16):
    # constant mobility with the regular potential: nothing can read them
    st = State(
        0.0, VectorField.zeros(grid16), ScalarField.zeros(grid16), ScalarField.zeros(grid16),
    )
    sim = Simulation(grid16, SolverParams(dt=1e-4), POT, MOB, st)
    sim.run(n_steps=3)
    assert sim.ledger.extras == {}
    # clamped mobility with a log potential: every record carries all four
    log = logarithmic_potential()
    clamped = regularize_mobility(degenerate_mobility(1), 0.1)
    x = grid16.cell_centers(0)
    phi = ScalarField(grid16, 0.5 * np.cos(np.pi * x)[:, None] * np.cos(np.pi * x)[None, :])
    st = State(0.0, VectorField.zeros(grid16), phi, ScalarField.zeros(grid16))
    sim = Simulation(grid16, SolverParams(dt=1e-4), log, clamped, st)
    sim.run(n_steps=3)
    assert set(sim.ledger.extras) == {"phi_l2_sq", "deg_grad", "deg_cross", "deg_flux"}
    assert all(len(v) == len(sim.ledger.records) == 4 for v in sim.ledger.extras.values())
    assert sim.ledger.extras["phi_l2_sq"][0] == pytest.approx(
        float(np.vdot(phi.data, phi.data)) * grid16.cell_volume, rel=1e-14
    )


def _smooth_deg_sim(g, dt, n_steps, with_flow):
    log = logarithmic_potential()
    pot = regularize_potential(log, 0.1)
    mob = regularize_mobility(degenerate_mobility(1), 0.1)
    x = g.cell_centers(0)
    X, Y = np.meshgrid(x, x, indexing="ij")
    phi = ScalarField(g, 0.5 * np.cos(np.pi * X) * np.cos(np.pi * Y))
    if with_flow:
        u, _ = helmholtz_project(vortex_field(g, 0.3), 1e-12)
    else:
        u = VectorField.zeros(g)
    st = State(0.0, u, phi, ScalarField.zeros(g))
    params = SolverParams(nu=1.0, beta=1.0, r=3.0, dt=dt, t_final=1.0)
    sim = Simulation(g, params, pot, mob, st)
    sim.run(n_steps=n_steps)
    return degenerate_energy_residual(sim.ledger, pot, mob)


def test_degenerate_residual_zero_trajectory(grid16):
    log = logarithmic_potential()
    pot = regularize_potential(log, 0.1)
    mob = regularize_mobility(degenerate_mobility(1), 0.1)
    st = State(
        0.0, VectorField.zeros(grid16), ScalarField.zeros(grid16), ScalarField.zeros(grid16),
    )
    sim = Simulation(grid16, SolverParams(dt=1e-4), pot, mob, st)
    sim.run(n_steps=3)
    assert abs(degenerate_energy_residual(sim.ledger, pot, mob)) <= 1e-12


def test_degenerate_residual_first_order_no_flow():
    g = Grid(2, 64)
    r1 = _smooth_deg_sim(g, 2e-4, 100, with_flow=False)
    r2 = _smooth_deg_sim(g, 1e-4, 200, with_flow=False)
    assert abs(r2) < abs(r1)
    assert 1.7 <= abs(r1) / abs(r2) <= 2.3


def test_degenerate_residual_coupled_small_and_decreasing():
    g = Grid(2, 64)
    r1 = _smooth_deg_sim(g, 2e-4, 100, with_flow=True)
    r2 = _smooth_deg_sim(g, 1e-4, 200, with_flow=True)
    assert abs(r1) <= 5e-2
    assert abs(r2) < abs(r1)


def test_hminus1_distance_identities(grid32, rng):
    phi = rand_scalar(grid32, rng)
    star, l2 = hminus1_distance(phi, phi)
    assert star == 0.0 and l2 == 0.0
    shifted = ScalarField(grid32, phi.data + 3.7)
    star, l2 = hminus1_distance(phi, shifted)
    assert star <= 1e-12 and l2 <= 1e-12


def test_hminus1_distance_grid_mismatch(grid16, grid32):
    with pytest.raises(PreconditionError):
        hminus1_distance(ScalarField.zeros(grid16), ScalarField.zeros(grid32))


def test_hminus1_single_mode_ratio():
    # cos(pi x): ||rho||_*/||rho|| = 1/sqrt(lambda_1) ~ 1/pi within 2%
    g = Grid(2, 64)
    x = g.cell_centers(0)
    rho = ScalarField(g, np.cos(np.pi * x)[:, None] * np.ones(g.n)[None, :])
    star, l2 = hminus1_distance(rho, ScalarField.zeros(g))
    assert abs(star / l2 - 1.0 / np.pi) <= 0.02 / np.pi


def test_hminus1_triangle_inequality(grid32, rng):
    zero = ScalarField.zeros(grid32)
    for _ in range(10):
        a = rand_scalar(grid32, rng)
        b = rand_scalar(grid32, rng)
        c = ScalarField(grid32, a.data + b.data)
        sa, _ = hminus1_distance(a, zero)
        sb, _ = hminus1_distance(b, zero)
        sc, _ = hminus1_distance(c, zero)
        assert sc <= sa + sb + 1e-10


def test_entropy_functional_values(grid32, rng):
    ent1 = EntropyFunction(constant_mobility(1.0))
    assert entropy_functional(ScalarField.zeros(grid32), ent1) == 0.0
    phi = rand_scalar(grid32, rng)
    val = entropy_functional(phi, ent1)
    half_l2 = 0.5 * float(np.vdot(phi.data, phi.data)) * grid32.cell_volume
    assert val == pytest.approx(half_l2, rel=1e-8)


def test_overshoot_functional(grid16):
    phi = ScalarField(grid16, np.full(grid16.cell_shape, 0.9))
    assert overshoot_functional(phi) == 0.0
    phi2 = ScalarField(grid16, np.full(grid16.cell_shape, 1.2))
    assert overshoot_functional(phi2) == pytest.approx(0.04, rel=1e-12)
    phi3 = ScalarField(grid16, np.full(grid16.cell_shape, -1.2))
    assert overshoot_functional(phi3) == pytest.approx(0.04, rel=1e-12)


def test_record_bulk_midpoint_rule(grid16):
    phi = ScalarField(grid16, np.full(grid16.cell_shape, 0.5))
    state = State(0.0, VectorField.zeros(grid16), phi, ScalarField.zeros(grid16))
    assert initial_record(state).bulk == pytest.approx((0.25 - 1.0) ** 2, rel=1e-12)
