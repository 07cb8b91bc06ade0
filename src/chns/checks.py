"""Property suite behind the `verify` command.

Each check returns a (name, passed, detail) row; the CLI prints the table
and exits nonzero if any row failed.  Randomized checks use fixed seeds so
two verify runs print identical tables.
"""

from dataclasses import dataclass

import numpy as np

from .config import build_materials, build_simulation
from .diagnostics import energy_balance_residual
from .errors import ChnsError
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    divergence_fc,
    gradient_cc,
    laplacian_neumann,
    scalar_inner,
    trilinear_b,
    vector_inner,
    vector_norm,
)
from .materials import (
    EntropyFunction,
    constant_mobility,
    degenerate_mobility,
    logarithmic_potential,
    mobility_value,
    potential_concave_value,
    potential_convex_value,
    potential_deriv,
    potential_value,
    regular_potential,
    regularize_mobility,
    regularize_potential,
)
from .poisson import helmholtz_project, neumann_inverse
from .solver import damping_pairing

__all__ = ["CheckResult", "run_verify", "format_table"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rand_scalar(grid, rng, mean_zero=False):
    data = rng.standard_normal(grid.cell_shape)
    if mean_zero:
        data -= data.mean()
    return ScalarField(grid, data)


def _rand_vector(grid, rng):
    v = VectorField(grid, tuple(rng.standard_normal(grid.face_shape(c)) for c in range(grid.dim)))
    v.zero_normal_boundaries()
    return v


def _check(name, value, bound, fmt="{:.3e}"):
    return CheckResult(name, value <= bound, f"max {fmt.format(value)} (bound {fmt.format(bound)})")


def check_operator_identities(rng):
    results = []
    worst_adj = worst_fact = worst_self = 0.0
    for n in (16, 32, 64):
        grid = Grid(2, n)
        for _ in range(5):
            phi = _rand_scalar(grid, rng)
            psi = _rand_scalar(grid, rng)
            v = _rand_vector(grid, rng)
            scale = vector_norm(v) * (scalar_inner(phi, phi) ** 0.5) + 1e-30
            adj = abs(vector_inner(gradient_cc(phi), v) + scalar_inner(phi, divergence_fc(v)))
            worst_adj = max(worst_adj, adj / scale)
            fact = np.abs(
                divergence_fc(gradient_cc(phi)).data - laplacian_neumann(phi).data
            ).max()
            worst_fact = max(worst_fact, fact)
            sa = abs(
                scalar_inner(laplacian_neumann(phi), psi)
                - scalar_inner(phi, laplacian_neumann(psi))
            )
            worst_self = max(worst_self, sa / (n * n))
    results.append(_check("grad/div adjointness (relative)", worst_adj, 1e-12))
    results.append(_check("div(grad) = laplacian factorization", worst_fact, 1e-12))
    results.append(_check("laplacian self-adjointness (scaled)", worst_self, 1e-12))
    return results


def check_projection(grid, rng, tol):
    worst_div = worst_orth = worst_idem = 0.0
    for _ in range(5):
        v = _rand_vector(grid, rng)
        pv, _ = helmholtz_project(v, tol)
        worst_div = max(worst_div, float(np.abs(divergence_fc(pv).data).max()))
        d = VectorField(grid, tuple(a - b for a, b in zip(v.components, pv.components)))
        orth = abs(vector_norm(pv) ** 2 + vector_norm(d) ** 2 - vector_norm(v) ** 2)
        worst_orth = max(worst_orth, orth / vector_norm(v) ** 2)
        ppv, _ = helmholtz_project(pv, tol)
        worst_idem = max(
            worst_idem,
            max(float(np.abs(a - b).max()) for a, b in zip(ppv.components, pv.components)),
        )
    return [
        _check("projection output divergence", worst_div, tol),
        _check("projection orthogonality (relative)", worst_orth, 1e-10),
        _check("projection idempotence", worst_idem, 10 * tol),
    ]


def check_trilinear(grid, rng):
    worst_diag = worst_anti = 0.0
    for _ in range(10):
        u, v, w = (_rand_vector(grid, rng) for _ in range(3))
        scale = vector_norm(u) * vector_norm(v) * vector_norm(w) + 1e-30
        worst_diag = max(worst_diag, abs(trilinear_b(u, v, v)) / scale)
        worst_anti = max(
            worst_anti, abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) / scale
        )
    return [
        _check("trilinear b(u,v,v) = 0 (relative)", worst_diag, 1e-12),
        _check("trilinear antisymmetry (relative)", worst_anti, 1e-12),
    ]


def check_neumann_inverse(grid, rng, tol):
    worst_sym = worst_chain = 0.0
    for _ in range(5):
        f = _rand_scalar(grid, rng, mean_zero=True)
        g = _rand_scalar(grid, rng, mean_zero=True)
        uf, sf, _ = neumann_inverse(f, tol)
        ug, _, _ = neumann_inverse(g, tol)
        sym = abs(scalar_inner(f, ug) - scalar_inner(g, uf))
        worst_sym = max(worst_sym, sym / (sf + 1e-30))
        chain = abs(sf**2 - scalar_inner(f, uf)) / (sf**2 + 1e-30)
        worst_chain = max(worst_chain, chain)
    return [
        _check("inverse-laplacian symmetry", worst_sym, 1e-10),
        _check("*-norm chains through <f, Binv f>", worst_chain, 1e-10),
    ]


def check_materials(cfg):
    results = []
    pot, mob = build_materials(cfg)
    pots = [("configured", pot), ("regular", regular_potential()),
            ("logarithmic", logarithmic_potential())]
    worst_lower = -np.inf
    worst_defect = worst_split = worst_fd = 0.0
    for label, spec in pots:
        lo, hi = spec.domain
        s = np.linspace(max(lo, -2.5) + 1e-3, min(hi, 2.5) - 1e-3, 1000)
        vals = potential_value(spec, s)
        worst_lower = max(worst_lower, -float(np.min(vals)))
        defect = -(potential_deriv(spec, s, 2) + spec.c0)
        worst_defect = max(worst_defect, float(np.max(defect)))
        split = potential_convex_value(spec, s) + potential_concave_value(spec, s) - vals
        worst_split = max(worst_split, float(np.max(np.abs(split))) / (1 + np.abs(vals).max()))
        h = 1e-6
        fd = (potential_value(spec, s + h) - potential_value(spec, s - h)) / (2 * h)
        an = potential_deriv(spec, s, 1)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - an))) / (1 + np.abs(an).max()))
    results.append(_check("potential nonnegativity (worst -min F)", worst_lower, 1e-12))
    results.append(_check("convexity defect F'' + c0 >= 0", worst_defect, 1e-10))
    results.append(_check("convex/concave split reproduces F", worst_split, 1e-12))
    results.append(_check("analytic vs central-difference F'", worst_fd, 1e-6))

    log = logarithmic_potential()
    worst_reg = worst_match = -np.inf
    for eps in (0.2, 0.1, 0.05):
        reg = regularize_potential(log, eps)
        s = np.linspace(-0.999, 0.999, 4001)
        gap = (potential_value(reg, s) - potential_value(log, s))
        worst_reg = max(worst_reg, float(np.max(gap)))
        inner = np.abs(s) <= 1 - eps
        worst_match = max(worst_match, float(np.max(np.abs(gap[inner]))))
    results.append(_check("regularized potential below base on (-1,1)", worst_reg, 1e-12))
    results.append(_check("regularization inactive inside clamp", worst_match, 1e-12))

    dm = degenerate_mobility(n=1)
    cm = regularize_mobility(dm, 0.1)
    joints = np.array([-0.9, 0.9])
    jump = float(np.max(np.abs(
        mobility_value(cm, joints - 1e-13) - mobility_value(cm, joints + 1e-13)
    )))
    results.append(_check("clamped mobility continuity at joints", jump, 1e-12))
    results.append(
        CheckResult(
            "clamped mobility positive lower bound",
            cm.m1 > 0,
            f"m1 = {cm.m1:.4f}",
        )
    )

    ent = EntropyFunction(constant_mobility(1.0))
    s = np.linspace(-2.0, 2.0, 801)
    err = float(np.max(np.abs(ent.value(s) - 0.5 * s**2)))
    results.append(_check("entropy of unit mobility equals s^2/2", err, 1e-8))
    return results


def check_damping(grid, rng):
    worst = float("inf")
    for r in (1.0, 2.0, 3.0, 4.0, 5.0):
        for _ in range(40):
            u1, u2 = _rand_vector(grid, rng), _rand_vector(grid, rng)
            worst = min(worst, damping_pairing(u1, u2, r))
    return [CheckResult(
        "damping pairing monotone (200 random pairs)",
        worst >= -1e-12,
        f"min pairing {worst:.3e}",
    )]


def check_short_run(cfg):
    results = []
    sim = build_simulation(cfg)
    try:
        sim.run(n_steps=min(30, max(1, sim.params.n_steps)))
    except ChnsError as exc:
        return [CheckResult("short coupled run", False, f"step failed: {exc}")]
    recs = sim.ledger.records
    drift = max(abs(r.mass - recs[0].mass) for r in recs)
    results.append(_check("mass conservation drift", drift, 1e-12))
    divmax = max(r.div_max for r in recs)
    results.append(_check("velocity divergence", divmax, 10 * cfg["solver.poisson_tol"]))
    if cfg["forcing.kind"] == "zero":
        e = [r.energy for r in recs]
        incr = max(b - a for a, b in zip(e, e[1:]))
        results.append(_check("energy monotone without forcing", incr, 1e-12 * e[0]))
    results.append(
        CheckResult(
            "energy balance residual (informative)",
            True,
            f"{energy_balance_residual(sim.ledger):.3e} at dt={cfg['time.dt']:g}",
        )
    )
    return results


def check_determinism(cfg):
    rows = []
    try:
        for _ in range(2):
            sim = build_simulation(cfg)
            sim.run(n_steps=min(10, max(1, sim.params.n_steps)))
            rows.append([r.to_csv_row() for r in sim.ledger.records])
    except ChnsError as exc:
        return [CheckResult("determinism: repeated run, identical ledger", False,
                            f"run failed: {exc}")]
    same = rows[0] == rows[1]
    return [CheckResult("determinism: repeated run, identical ledger", same,
                        "bitwise equal" if same else "ledgers differ")]


def run_verify(cfg):
    """Full property suite; returns the list of CheckResult rows."""
    rng = np.random.default_rng(2024)
    grid = Grid(cfg["grid.dim"], min(cfg["grid.n"], 32))
    tol = cfg["solver.poisson_tol"]
    results = []
    results += check_operator_identities(rng)
    results += check_projection(grid, rng, tol)
    results += check_trilinear(grid, rng)
    results += check_neumann_inverse(grid, rng, tol)
    results += check_materials(cfg)
    results += check_damping(grid, rng)
    results += check_short_run(cfg)
    results += check_determinism(cfg)
    return results


def format_table(results):
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
