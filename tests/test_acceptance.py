"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output).  The heavy trajectories are shared through module-scoped
fixtures, so the suite stays inside the stated runtime budgets.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from chns.cli import main
from chns.diagnostics import energy_balance_residual
from chns.experiments import parse_plan, run_continuous_dependence, run_epsilon_sweep, run_refinement
from chns.grid import (
    Grid,
    ScalarField,
    VectorField,
    scalar_inner,
    trilinear_b,
    vector_norm,
)
from chns.materials import (
    EntropyFunction,
    constant_mobility,
    degenerate_mobility,
    logarithmic_potential,
    potential_value,
    regular_potential,
    regularize_mobility,
    regularize_potential,
)
from chns.poisson import helmholtz_project, neumann_inverse
from chns.solver import (
    Simulation,
    SolverParams,
    State,
    damping_pairing,
    initial_state,
    vortex_field,
)

from conftest import rand_scalar, rand_vector


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared desk runs: 64^2, dt = 1e-4, 2000 steps, no forcing

@pytest.fixture(scope="module")
def desk_runs():
    grid = Grid(2, 64)
    pot = regular_potential()
    mob = constant_mobility()
    runs = {}
    for r in (1.0, 2.0, 3.0, 4.0):
        params = SolverParams(nu=1.0, beta=1.0, r=r, dt=1e-4, t_final=0.2)
        state = initial_state(
            grid, phi_mean=0.0, noise_amp=0.05, seed=1234,
            velocity="vortex", velocity_amp=0.1,
        )
        sim = Simulation(grid, params, pot, mob, state)
        t0 = time.perf_counter()
        sim.run(n_steps=2000)
        runs[r] = (sim.ledger, time.perf_counter() - t0)
    return runs


def test_criterion_1_mass_conservation(desk_runs):
    worst = 0.0
    for r, (ledger, _) in desk_runs.items():
        m0 = ledger.records[0].mass
        worst = max(worst, max(abs(rec.mass - m0) for rec in ledger.records))
    wall = desk_runs[3.0][1]
    ok = worst <= 1e-12 and wall <= 60.0
    report(1, "mass conservation", ok,
           f"max |<phi^n> - <phi^0>| = {worst:.3e} over 2000 steps x 4 runs, "
           f"r=3 run took {wall:.1f}s (budget 60s)")


def test_criterion_2_discrete_energy_law(desk_runs):
    worst = -np.inf
    for r, (ledger, _) in desk_runs.items():
        e = [rec.energy for rec in ledger.records]
        slack = 1e-12 * e[0]
        worst = max(worst, max(b - a - slack for a, b in zip(e, e[1:])))
    ok = worst <= 0.0
    report(2, "discrete energy law", ok,
           f"max (E_next - E - 1e-12 E0) = {worst:.3e} for r in {{1,2,3,4}}")


def _smooth_energy_state(grid):
    x = grid.cell_centers(0)
    X, Y = np.meshgrid(x, x, indexing="ij")
    phi = ScalarField(
        grid,
        0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y) + 0.15 * np.cos(2 * np.pi * X)
        + 0.1 * np.cos(np.pi * Y),
    )
    u, _ = helmholtz_project(vortex_field(grid, 0.4), 1e-12)
    return State(0.0, u, phi, ScalarField.zeros(grid))


def test_criterion_3_energy_equality_convergence():
    grid = Grid(2, 64)
    pot = regular_potential()
    mob = constant_mobility()
    t0 = time.perf_counter()
    residuals = {}
    for dt in (1e-4, 5e-5):
        params = SolverParams(nu=1.0, beta=1.0, r=3.0, dt=dt, t_final=0.2)
        sim = Simulation(grid, params, pot, mob, _smooth_energy_state(grid))
        sim.run()
        residuals[dt] = energy_balance_residual(sim.ledger)
    wall = time.perf_counter() - t0
    ratio = residuals[1e-4] / residuals[5e-5]
    ok = 1.7 <= ratio <= 2.3 and residuals[5e-5] <= 1e-2 and wall <= 300.0
    report(3, "energy equality convergence (r=3)", ok,
           f"residuals {residuals[1e-4]:.3e} -> {residuals[5e-5]:.3e}, "
           f"ratio {ratio:.2f} in [1.7, 2.3], pair took {wall:.0f}s (budget 300s)")


def test_criterion_4_damping_monotonicity():
    grid = Grid(2, 8)
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = np.inf
    for r in (1.0, 2.0, 3.0, 4.0, 5.0):
        for _ in range(10_000):
            u1 = rand_vector(grid, rng)
            u2 = rand_vector(grid, rng)
            worst = min(worst, damping_pairing(u1, u2, r))
    wall = time.perf_counter() - t0
    ok = worst >= -1e-12 and wall <= 30.0
    report(4, "damping monotonicity", ok,
           f"min pairing {worst:.3e} over 1e4 pairs x r in {{1..5}}, "
           f"took {wall:.0f}s (budget 30s)")


def test_criterion_5_operator_identities():
    grid = Grid(2, 32)
    rng = np.random.default_rng(7)
    worst_b = worst_anti = worst_sym = worst_orth = 0.0
    for _ in range(100):
        u, v, w = (rand_vector(grid, rng) for _ in range(3))
        scale = vector_norm(u) * vector_norm(v) * vector_norm(w)
        worst_b = max(worst_b, abs(trilinear_b(u, v, v)) / (vector_norm(u) * vector_norm(v) ** 2))
        worst_anti = max(worst_anti, abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) / scale)
    for _ in range(100):
        f = rand_scalar(grid, rng, mean_zero=True)
        g = rand_scalar(grid, rng, mean_zero=True)
        uf, sf, _ = neumann_inverse(f, 1e-10)
        ug, _, _ = neumann_inverse(g, 1e-10)
        worst_sym = max(worst_sym,
                        abs(scalar_inner(f, ug) - scalar_inner(g, uf)) / max(sf, 1.0))
    for _ in range(20):
        v = rand_vector(grid, rng)
        pv, _ = helmholtz_project(v, 1e-10)
        d = VectorField(grid, tuple(a - b for a, b in zip(v.components, pv.components)))
        orth = abs(vector_norm(pv) ** 2 + vector_norm(d) ** 2 - vector_norm(v) ** 2)
        worst_orth = max(worst_orth, orth / vector_norm(v) ** 2)
    ok = worst_b <= 1e-12 and worst_anti <= 1e-12 and worst_sym <= 1e-10 and worst_orth <= 1e-10
    report(5, "operator identities", ok,
           f"b(u,v,v) {worst_b:.1e}, antisym {worst_anti:.1e}, "
           f"Binv sym {worst_sym:.1e}, proj orth {worst_orth:.1e}")


def test_criterion_6_regularization_ladder():
    log = logarithmic_potential()
    s = np.linspace(-1 + 1e-9, 1 - 1e-9, 10_000)
    f2 = 0.5 * log.theta_c * (1.0 - s**2)
    base_f1 = potential_value(log, s) - f2
    worst_gap = -np.inf
    for eps in (0.2, 0.1, 0.05):
        reg = regularize_potential(log, eps)
        worst_gap = max(worst_gap, float(np.max((potential_value(reg, s) - f2) - base_f1)))
    mob_ok = all(
        regularize_mobility(degenerate_mobility(1), eps).m1 > 0.0
        for eps in (0.2, 0.1, 0.05)
    )
    ent = EntropyFunction(constant_mobility(1.0))
    sg = np.linspace(-2.0, 2.0, 2001)
    g_err = float(np.max(np.abs(ent.value(sg) - 0.5 * sg**2)))
    ok = worst_gap <= 1e-12 and mob_ok and g_err <= 1e-8
    report(6, "regularization ladder", ok,
           f"max(F1eps - F1) = {worst_gap:.2e}, clamped m1 > 0: {mob_ok}, "
           f"entropy vs s^2/2: {g_err:.2e}")


def test_criterion_7_degeneracy_limit():
    plan = parse_plan("""
    experiment.kind = epsilon_sweep
    epsilon_sweep.eps_list = 0.2, 0.1, 0.05
    grid.n = 64
    time.dt = 1e-4
    time.t_final = 0.05
    init.noise_amp = 0.05
    init.seed = 1234
    """)
    t0 = time.perf_counter()
    rep = run_epsilon_sweep(plan)
    wall = time.perf_counter() - t0
    overshoots = rep.notes["terminal_overshoots"]
    decreasing = rep.notes["weakly_decreasing"]
    log_max = rep.notes["log_phi_max"]
    # the regularized/clamped ledgers honor the conservation suite too
    drift = 0.0
    for ledger in rep.ledgers.values():
        recs = ledger.records
        drift = max(drift, max(abs(r.mass - recs[0].mass) for r in recs))
        e = [r.energy for r in recs]
        assert max(b - a for a, b in zip(e, e[1:])) <= 1e-12 * max(e[0], 1.0)
    ok = decreasing and log_max < 1.0 and drift <= 1e-12 and wall <= 600.0
    report(7, "degeneracy limit", ok,
           f"terminal overshoots {overshoots} weakly decreasing: {decreasing}, "
           f"log-run max|phi| = {log_max:.4f} < 1, mass drift {drift:.1e}, "
           f"took {wall:.0f}s (budget 600s)")


def test_criterion_8_continuous_dependence():
    plan = parse_plan("""
    experiment.kind = continuous_dependence
    experiment.seed = 99
    continuous_dependence.delta_list = 1e-2, 5e-3, 2.5e-3
    grid.n = 64
    time.dt = 1e-4
    time.t_final = 0.02
    physics.nu = 2.0
    physics.beta = 1.0
    physics.r = 3
    init.velocity = vortex
    init.velocity_amp = 0.3
    """)
    t0 = time.perf_counter()
    rep = run_continuous_dependence(plan)
    wall = time.perf_counter() - t0
    ratios = rep.notes["terminal_ratios"]
    zero_d = rep.notes["zero_delta_max_D"]
    ok = all(3.0 <= q <= 5.0 for q in ratios) and zero_d <= 1e-20 and wall <= 600.0
    report(8, "continuous dependence (r=3, beta*nu=2)", ok,
           f"terminal D ratios {[f'{q:.3f}' for q in ratios]} in [3, 5], "
           f"delta=0 control D = {zero_d:.1e}, took {wall:.0f}s (budget 600s)")


def test_criterion_9_spatial_order():
    plan = parse_plan("""
    experiment.kind = refinement
    refinement.grid_list = 32, 64, 128
    refinement.amplitude = 3e-3
    grid.n = 32
    time.dt = 1e-5
    time.t_final = 3.2e-3
    init.noise_amp = 0.0
    """)
    rep = run_refinement(plan)
    orders = rep.notes["spatial_orders"] + rep.notes["cauchy_orders"]
    ok = all(1.6 <= o <= 2.4 for o in orders)
    report(9, "spatial order", ok,
           f"observed orders {[f'{o:.3f}' for o in orders]} all in [1.6, 2.4]")


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "grid.n = 32\ntime.dt = 1e-4\ntime.t_final = 5e-3\n"
        "init.seed = 77\ninit.velocity = vortex\noutput.every_k_steps = 5\n"
    )
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    csvs = []
    for name in ("da", "db"):
        out = str(tmp_path / name)
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
        csvs.append(os.path.join(out, "diagnostics.csv"))
    rows = [open(p).read().strip().splitlines() for p in csvs]
    worst = 0.0
    for ra, rb in zip(rows[0][1:], rows[1][1:]):
        for a, b in zip(ra.split(","), rb.split(",")):
            worst = max(worst, abs(float(a) - float(b)))
    digests = []
    for name in ("pa", "pb"):
        pdir = str(tmp_path / name)
        assert main(["plot", "--csv", csvs[0], "--columns", "kinetic", "--out", pdir]) == 0
        with open(os.path.join(pdir, "diagnostics_kinetic.svg"), "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    ok = worst <= 1e-10 and digests[0] == digests[1]
    report(10, "determinism", ok,
           f"max CSV entry difference {worst:.1e}, plot bytes identical: "
           f"{digests[0] == digests[1]}")
