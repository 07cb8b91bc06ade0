"""Catalogue of the discrete identities, and the property suite behind `verify`.

Each identity has one function here that returns its raw defect for the
fields it is given, zero where the identity holds exactly.  `chns verify`,
the acceptance criteria, the tests and the demos all call these functions;
each caller keeps its own scale and bound, because they divide the same
defect by different norms.  `rand_scalar` and `rand_vector` draw the random
fields they use.

Each check returns a (name, passed, detail) row; the CLI prints the table
and exits nonzero if any row failed.  Randomized checks use fixed seeds so
two verify runs print identical tables.
"""

from dataclasses import dataclass

import numpy as np

from .config import build_materials, build_simulation
from .diagnostics import _deg_identity_applies, degenerate_energy_residual, energy_balance_residual
from .errors import ChnsError
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    convection,
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
    potential_deriv,
    potential_value,
    regular_potential,
    regularize_mobility,
    regularize_potential,
)
from .poisson import RESIDUAL_TOL, helmholtz_project, neumann_inverse
from .solver import damping_pairing

__all__ = [
    "CheckResult", "run_verify", "format_table", "rand_scalar", "rand_vector",
    "adjointness_defect", "laplacian_symmetry_defect",
    "projection_divergence_defect", "projection_orthogonality_defect",
    "projection_idempotence_defect", "trilinear_diagonal_defect",
    "trilinear_antisymmetry_defect", "convection_energy_defect",
    "neumann_symmetry_defect", "star_norm_chain_defect",
    "potential_floor_defect", "convexity_defect", "derivative_defect",
    "regularization_excess", "clamp_mismatch", "mobility_joint_jump",
    "entropy_quadratic_defect", "ledger_mass_drift", "ledger_energy_rise", "ledger_div_max",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def rand_scalar(grid, rng, mean_zero=False):
    """Standard normal cell values, shifted to mean zero on request."""
    data = rng.standard_normal(grid.cell_shape)
    if mean_zero:
        data -= data.mean()
    return ScalarField(grid, data)


def rand_vector(grid, rng):
    """Standard normal face values with the normal wall faces pinned at zero."""
    v = VectorField(grid, tuple(rng.standard_normal(grid.face_shape(c)) for c in range(grid.dim)))
    return v.zero_normal_boundaries()


# ---------------------------------------------------------------------------
# the identities, one raw defect each

def adjointness_defect(phi, v):
    """|<grad phi, v> + <phi, div v>|: summation by parts, for v pinned at the walls."""
    return abs(vector_inner(gradient_cc(phi), v) + scalar_inner(phi, divergence_fc(v)))


def laplacian_symmetry_defect(phi, psi):
    """|<Lap phi, psi> - <phi, Lap psi>|."""
    lap_phi, lap_psi = laplacian_neumann(phi), laplacian_neumann(psi)
    return abs(scalar_inner(lap_phi, psi) - scalar_inner(phi, lap_psi))


def projection_divergence_defect(pv):
    """max |div P v|."""
    return float(np.abs(divergence_fc(pv).data).max())


def projection_orthogonality_defect(v, pv):
    """| |P v|^2 + |v - P v|^2 - |v|^2 |: zero iff v - P v is orthogonal to P v."""
    d = VectorField(v.grid, tuple(a - b for a, b in zip(v.components, pv.components)))
    return abs(vector_norm(pv) ** 2 + vector_norm(d) ** 2 - vector_norm(v) ** 2)


def projection_idempotence_defect(pv, tol=RESIDUAL_TOL):
    """max |P P v - P v| over all faces."""
    ppv, _ = helmholtz_project(pv, tol)
    return max(float(np.abs(a - b).max()) for a, b in zip(ppv.components, pv.components))


def trilinear_diagonal_defect(u, v):
    """|b(u, v, v)|."""
    return abs(trilinear_b(u, v, v))


def trilinear_antisymmetry_defect(u, v, w):
    """|b(u, v, w) + b(u, w, v)|."""
    return abs(trilinear_b(u, v, w) + trilinear_b(u, w, v))


def convection_energy_defect(u, v):
    """|<N(u) v, v>| for the stepped convection N."""
    return abs(vector_inner(convection(u, v), v))


def neumann_symmetry_defect(f, uf, g, ug):
    """|<f, B g> - <g, B f>| for B = (-Lap)^-1, given uf = B f and ug = B g."""
    return abs(scalar_inner(f, ug) - scalar_inner(g, uf))


def star_norm_chain_defect(f, uf, sf):
    """| |f|_*^2 - <f, B f> |, given `uf, sf, _ = neumann_inverse(f)`."""
    return abs(sf**2 - scalar_inner(f, uf))


def potential_floor_defect(spec, s):
    """max(-F): how far F dips below zero."""
    return -float(np.min(potential_value(spec, s)))


def convexity_defect(spec, s):
    """max(-(F'' + c0)): zero where F + c0 s^2 / 2 is convex."""
    return float(np.max(-(potential_deriv(spec, s, 2) + spec.c0)))


def derivative_defect(spec, s, h):
    """max |F' - the central difference of F with step h|."""
    fd = (potential_value(spec, s + h) - potential_value(spec, s - h)) / (2 * h)
    return float(np.max(np.abs(fd - potential_deriv(spec, s, 1))))


def regularization_excess(base, reg, s):
    """max(F_eps - F): at most zero, as the regularized potential lies below its base."""
    return float(np.max(potential_value(reg, s) - potential_value(base, s)))


def clamp_mismatch(base, reg, s):
    """max |F_eps - F| over the samples with |s| <= 1 - eps, where the two coincide."""
    gap = potential_value(reg, s) - potential_value(base, s)
    return float(np.max(np.abs(gap[np.abs(s) <= 1 - reg.eps])))


def mobility_joint_jump(mob):
    """max |m_eps(j - 1e-13) - m_eps(j + 1e-13)| at the joints j = +-(1 - eps)."""
    j = np.array([-(1 - mob.eps), 1 - mob.eps])
    return float(np.max(np.abs(mobility_value(mob, j - 1e-13) - mobility_value(mob, j + 1e-13))))


def entropy_quadratic_defect(s):
    """max |G(s) - s^2/2| for the entropy G of the unit constant mobility."""
    return float(np.max(np.abs(EntropyFunction(constant_mobility(1.0)).value(s) - 0.5 * s**2)))


def ledger_mass_drift(ledger):
    """max over the records of |<phi^n> - <phi^0>|."""
    recs = ledger.records
    return max(abs(r.mass - recs[0].mass) for r in recs)


def ledger_energy_rise(ledger):
    """max over the steps of E^{n+1} - E^n; at most roundoff without forcing."""
    e = [r.energy for r in ledger.records]
    return max(b - a for a, b in zip(e, e[1:]))


def ledger_div_max(ledger):
    """max over the records of max |div u|."""
    return max(r.div_max for r in ledger.records)


# ---------------------------------------------------------------------------
# the verify suite

def _check(name, value, bound, fmt="{:.3e}"):
    return CheckResult(name, value <= bound, f"max {fmt.format(value)} (bound {fmt.format(bound)})")


def check_operator_identities(rng):
    worst_adj = worst_self = 0.0
    for n in (16, 32, 64):
        grid = Grid(2, n)
        for _ in range(5):
            phi = rand_scalar(grid, rng)
            psi = rand_scalar(grid, rng)
            v = rand_vector(grid, rng)
            scale = vector_norm(v) * (scalar_inner(phi, phi) ** 0.5) + 1e-30
            worst_adj = max(worst_adj, adjointness_defect(phi, v) / scale)
            worst_self = max(worst_self, laplacian_symmetry_defect(phi, psi) / (n * n))
    return [
        _check("grad/div adjointness (relative)", worst_adj, 1e-12),
        _check("laplacian self-adjointness (scaled)", worst_self, 1e-12),
    ]


def check_projection(grid, rng):
    worst_div = worst_orth = worst_idem = 0.0
    for _ in range(5):
        v = rand_vector(grid, rng)
        pv, _ = helmholtz_project(v)
        worst_div = max(worst_div, projection_divergence_defect(pv))
        worst_orth = max(worst_orth, projection_orthogonality_defect(v, pv) / vector_norm(v) ** 2)
        worst_idem = max(worst_idem, projection_idempotence_defect(pv))
    return [
        _check("projection output divergence", worst_div, RESIDUAL_TOL),
        _check("projection orthogonality (relative)", worst_orth, 1e-10),
        _check("projection idempotence", worst_idem, 10 * RESIDUAL_TOL),
    ]


def check_trilinear(grid, rng):
    worst_diag = worst_anti = worst_conv = 0.0
    for _ in range(10):
        u, v, w = (rand_vector(grid, rng) for _ in range(3))
        scale = vector_norm(u) * vector_norm(v) * vector_norm(w) + 1e-30
        worst_diag = max(worst_diag, trilinear_diagonal_defect(u, v) / scale)
        worst_anti = max(worst_anti, trilinear_antisymmetry_defect(u, v, w) / scale)
        conv_scale = vector_norm(u) * vector_norm(v) ** 2 / grid.h + 1e-30
        worst_conv = max(worst_conv, convection_energy_defect(u, v) / conv_scale)
    return [
        _check("trilinear b(u,v,v) = 0 (relative)", worst_diag, 1e-12),
        _check("trilinear antisymmetry (relative)", worst_anti, 1e-12),
        _check("convection energy-neutral <N(u)v, v> (relative)", worst_conv, 1e-12),
    ]


def check_neumann_inverse(grid, rng):
    worst_sym = worst_chain = 0.0
    for _ in range(5):
        f = rand_scalar(grid, rng, mean_zero=True)
        g = rand_scalar(grid, rng, mean_zero=True)
        uf, sf, _ = neumann_inverse(f)
        ug, _, _ = neumann_inverse(g)
        worst_sym = max(worst_sym, neumann_symmetry_defect(f, uf, g, ug) / (sf + 1e-30))
        worst_chain = max(worst_chain, star_norm_chain_defect(f, uf, sf) / (sf**2 + 1e-30))
    return [
        _check("inverse-laplacian symmetry", worst_sym, 1e-10),
        _check("*-norm chains through <f, Binv f>", worst_chain, 1e-10),
    ]


def check_materials(cfg):
    pot, _ = build_materials(cfg)
    worst_lower = -np.inf
    worst_defect = worst_fd = 0.0
    for spec in (pot, regular_potential(), logarithmic_potential()):
        lo, hi = spec.domain
        s = np.linspace(max(lo, -2.5) + 1e-3, min(hi, 2.5) - 1e-3, 1000)
        worst_lower = max(worst_lower, potential_floor_defect(spec, s))
        worst_defect = max(worst_defect, convexity_defect(spec, s))
        scale = 1 + np.abs(potential_deriv(spec, s, 1)).max()
        worst_fd = max(worst_fd, derivative_defect(spec, s, 1e-6) / scale)
    log = logarithmic_potential()
    s = np.linspace(-0.999, 0.999, 4001)
    ladder = [regularize_potential(log, eps) for eps in (0.2, 0.1, 0.05)]
    cm = regularize_mobility(degenerate_mobility(n=1), 0.1)
    return [
        _check("potential nonnegativity (worst -min F)", worst_lower, 1e-12),
        _check("convexity defect F'' + c0 >= 0", worst_defect, 1e-10),
        _check("analytic vs central-difference F'", worst_fd, 1e-6),
        _check("regularized potential below base on (-1,1)",
               max(regularization_excess(log, reg, s) for reg in ladder), 1e-12),
        _check("regularization inactive inside clamp",
               max(clamp_mismatch(log, reg, s) for reg in ladder), 1e-12),
        _check("clamped mobility continuity at joints", mobility_joint_jump(cm), 1e-12),
        CheckResult("clamped mobility positive lower bound", cm.m1 > 0, f"m1 = {cm.m1:.4f}"),
        _check("entropy of unit mobility equals s^2/2",
               entropy_quadratic_defect(np.linspace(-2.0, 2.0, 801)), 1e-8),
    ]


def check_damping(grid, rng):
    worst = float("inf")
    for r in (1.0, 2.0, 3.0, 4.0, 5.0):
        for _ in range(40):
            u1, u2 = rand_vector(grid, rng), rand_vector(grid, rng)
            worst = min(worst, damping_pairing(u1, u2, r))
    return [CheckResult(
        "damping pairing monotone (200 random pairs)",
        worst >= -1e-12,
        f"min pairing {worst:.3e}",
    )]


def check_short_run(cfg):
    results = []
    sim = build_simulation(cfg)
    n_steps = min(30, max(1, sim.params.n_steps))
    deg = _deg_identity_applies(sim.pot, sim.mob)
    try:
        if deg:  # the residual's reader takes the steps itself
            residual = degenerate_energy_residual(sim, n_steps)
        else:
            sim.run(n_steps)
    except ChnsError as exc:
        return [CheckResult("short coupled run", False, f"step failed: {exc}")]
    results.append(_check("mass conservation drift", ledger_mass_drift(sim.ledger), 1e-12))
    results.append(_check("velocity divergence", ledger_div_max(sim.ledger), 10 * RESIDUAL_TOL))
    if cfg["forcing.kind"] == "zero":
        results.append(_check("energy monotone without forcing", ledger_energy_rise(sim.ledger),
                              1e-12 * sim.ledger.records[0].energy))
    results.append(
        CheckResult(
            "energy balance residual (informative)",
            True,
            f"{energy_balance_residual(sim.ledger):.3e} at dt={cfg['time.dt']:g}",
        )
    )
    if deg:
        results.append(CheckResult("degenerate energy residual (informative)", True,
                                   f"{residual:.3e} at dt={cfg['time.dt']:g}"))
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
    results = []
    results += check_operator_identities(rng)
    results += check_projection(grid, rng)
    results += check_trilinear(grid, rng)
    results += check_neumann_inverse(grid, rng)
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
