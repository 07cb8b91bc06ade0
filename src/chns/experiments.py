"""Scripted parameter studies: refinement, damping sweeps, dependence probes.

Every study is deterministic given its plan (including seeds): field
initializations are bitwise reproducible and the iterative solves are
driven to tolerances far below the reported quantities.  The runs inside
one plan execute one after another, in plan order.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .checks import rand_scalar, rand_vector
from .config import RunConfig, _fail, build_materials, build_simulation, parse_extended
from .config import build_params  # noqa: F401  (bench/layers.py rebinds it)
from .diagnostics import (
    CSV_COLUMNS,
    energy_balance_residual,
    entropy_functional,
    hminus1_distance,
    overshoot_functional,
)
from .errors import ConfigError, ParameterError, PreconditionError
from .grid import Grid, VectorField, vector_norm
from .materials import EntropyFunction, potential_deriv
from .poisson import helmholtz_project
from .solver import initial_state
from .svg import write_chart

__all__ = [
    "ExperimentPlan",
    "ExperimentReport",
    "parse_plan",
    "run_experiment",
    "run_refinement",
    "run_r_sweep",
    "run_continuous_dependence",
    "run_beta_nu_probe",
    "run_epsilon_sweep",
]

_PLAN_SCHEMA = {
    "experiment.kind": ("str", ""),
    "experiment.seed": ("int", 1234),
    "refinement.grid_list": ("int_list", []),
    "refinement.dt_list": ("float_list", []),
    "refinement.amplitude": ("float", 3e-3),
    "r_sweep.r_list": ("float_list", []),
    "beta_nu.beta_list": ("float_list", []),
    "beta_nu.nu_list": ("float_list", []),
    "beta_nu.delta": ("float", 1e-2),
    "continuous_dependence.delta_list": ("float_list", []),
    "epsilon_sweep.eps_list": ("float_list", []),
}


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str
    seed: int
    params: dict
    base: RunConfig

    @property
    def out_dir(self):
        return self.base["output.dir"]


@dataclass
class ExperimentReport:
    kind: str
    summary: list = field(default_factory=list)
    curves: dict = field(default_factory=dict)
    ledgers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def write(self, out_dir):
        """Report tree: per-run diagnostics CSVs, summary.csv, one SVG per curve."""
        root = os.path.join(out_dir, self.kind)
        os.makedirs(root, exist_ok=True)
        paths = []
        for label, ledger in sorted(self.ledgers.items()):
            rows = (rec.to_csv_row() for rec in ledger.records)
            paths.append(_write_csv(os.path.join(root, f"run_{label}.csv"), CSV_COLUMNS, rows))
        if self.summary:
            # rows of different kinds (spatial, temporal) share one header
            keys = list(dict.fromkeys(k for row in self.summary for k in row))
            rows = (",".join(_csv_cell(row[k]) if k in row else "" for k in keys)
                    for row in self.summary)
            paths.append(_write_csv(os.path.join(root, "summary.csv"), keys, rows))
        for name, (xlabel, ylabel, series) in sorted(self.curves.items()):
            path = os.path.join(root, f"{name}.svg")
            write_chart(path, name.replace("_", " "), xlabel, ylabel, series)
            paths.append(path)
        if self.notes:
            rows = (f"{key},{_csv_cell(self.notes[key])}" for key in sorted(self.notes))
            paths.append(_write_csv(os.path.join(root, "notes.csv"), ("key", "value"), rows))
        return paths


def _csv_cell(val):
    return repr(val) if isinstance(val, float) else str(val)


def _write_csv(path, header, rows):
    """Write the ``header`` names and the already joined ``rows``; returns path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row + "\n")
    return path


def parse_plan(text):
    """Plan file: an experiment.kind plus parameter lists, on top of the
    regular config keys (which become the base run configuration).  A plan
    sets only ``experiment.*`` keys and those of its own study's section."""
    base, given = parse_extended(text, _PLAN_SCHEMA)
    extras = {key: given.get(key, default) for key, (_, default) in _PLAN_SCHEMA.items()}
    kind = extras["experiment.kind"]
    if kind not in _RUNNERS:
        raise ParameterError(
            f"experiment.kind must be one of {tuple(_RUNNERS)}, got {kind!r}"
        )
    section = "beta_nu" if kind == "beta_nu_probe" else kind
    for key in given:
        if key.partition(".")[0] not in ("experiment", section):
            _fail(key, f"is not read by experiment.kind = {kind}")
    if extras["experiment.seed"] < 0:
        _fail("experiment.seed", f"must be >= 0, got {extras['experiment.seed']}")
    return ExperimentPlan(kind=kind, seed=extras["experiment.seed"], params=extras, base=base)


def _entry_config(cfg, list_key, entry, **updates):
    """``cfg.with_updates(**updates)`` for one ``entry`` of the plan list
    ``list_key``: a config rule it breaks fails under the list key."""
    try:
        return cfg.with_updates(**updates)
    except ConfigError as exc:
        raise ConfigError(f"key {list_key!r}: entry {entry!r}: {exc}") from None


def _run_labels(list_key, entries, fmt):
    """The run-file label ``fmt.format(entry)`` of each entry of the plan
    list ``list_key``; two entries with one label fail before any step."""
    labels = [fmt.format(entry) for entry in entries]
    for i, label in enumerate(labels):
        j = labels.index(label)
        if j < i:
            raise PreconditionError(f"key {list_key!r}: entries {entries[j]!r} and {entries[i]!r} "
                                    f"share the run label {label!r}")
    return labels


def _run_parallel(tasks):
    """Execute the independent runs of a study in order."""
    return [task() for task in tasks]


def run_experiment(plan):
    return _RUNNERS[plan.kind](plan)


# ---------------------------------------------------------------------------
# shared run helpers

def _smooth_phi(grid):
    """Deterministic smooth phi usable across grid resolutions."""
    x = grid.cell_centers(0)
    y = grid.cell_centers(1)
    X = x.reshape((-1,) + (1,) * (grid.dim - 1))
    Y = y.reshape((1, -1) + (1,) * (grid.dim - 2))
    return (
        0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)
        + 0.2 * np.cos(2 * np.pi * X)
        + np.zeros(grid.cell_shape)
    )


def _coarsen_cells(arr, factor):
    """Block average a cell array down by an integer factor per axis."""
    out = arr
    for axis in range(arr.ndim):
        n = out.shape[axis] // factor
        shape = list(out.shape)
        shape[axis : axis + 1] = [n, factor]
        out = out.reshape(shape).mean(axis=axis + 1)
    return out


# ---------------------------------------------------------------------------
# refinement

def run_refinement(plan):
    """Grid and/or time-step refinement with Cauchy differences.

    Spatial mode runs the diffusion-only linear-regime setup (single cosine
    mode, zero velocity); the mode amplitude admits an exact linearized
    decay factor, and successive differences of the signed amplitude error
    cancel the shared time-integration error, exposing the spatial order.
    """
    grids = plan.params["refinement.grid_list"]
    dts = plan.params["refinement.dt_list"]
    if len(grids) < 3 and len(dts) < 3:
        raise PreconditionError(
            "refinement plan needs >= 3 grid sizes or >= 3 time steps"
        )
    if any(b != 2 * a for a, b in zip(grids, grids[1:])):
        raise PreconditionError(
            f"spatial refinement needs each grid size to double the one before, got {grids}"
        )
    cfg = plan.base
    # every run's config is validated before the first step
    spatial = [_entry_config(cfg, "refinement.grid_list", n, grid__n=n, init__velocity="zero")
               for n in grids]
    smooth = cfg.with_updates(init__velocity="vortex", init__velocity_amp=0.4)
    temporal = [_entry_config(smooth, "refinement.dt_list", dt, time__dt=dt) for dt in dts]
    dt_labels = _run_labels("refinement.dt_list", dts, "dt{}")
    report = ExperimentReport(kind="refinement")
    if grids:
        _refine_space(plan, cfg, spatial, report)
    if dts:
        _refine_time(cfg, temporal, dt_labels, report)
    return report


def _refine_space(plan, cfg, subs, report):
    if cfg["potential.kind"] == "regularized":
        raise PreconditionError("spatial refinement oracle needs regular/logarithmic potential")
    amp = plan.params["refinement.amplitude"]
    phi_mean = cfg["init.phi_mean"]
    grids = [sub["grid.n"] for sub in subs]

    def one(sub):
        grid = Grid(sub["grid.dim"], sub["grid.n"])
        cos = np.cos(np.pi * grid.cell_centers(0))
        mode = np.multiply.outer(cos, cos).reshape(grid.cell_shape[:2] + (1,) * (grid.dim - 2))
        mode = mode * np.ones(grid.cell_shape)
        sim = build_simulation(sub, phi=phi_mean + amp * mode)
        sim.run()
        measured = float(
            np.vdot(sim.state.phi.data - phi_mean, mode) / np.vdot(mode, mode)
        )
        return sim.ledger, sim.state.phi.data, measured

    results = _run_parallel([lambda sub=sub: one(sub) for sub in subs])
    lam = 2 * np.pi**2
    curvature = float(potential_deriv(build_materials(cfg)[0], phi_mean, 2))
    rate = lam * (lam + curvature)
    exact = amp * math.exp(-rate * cfg["time.t_final"])
    errors = []
    fields = {}
    for n, (ledger, phi, measured) in zip(grids, results):
        errors.append(measured - exact)
        fields[n] = phi
        report.ledgers[f"n{n}"] = ledger

    orders = []
    for i in range(len(grids) - 2):
        d1 = errors[i] - errors[i + 1]
        d2 = errors[i + 1] - errors[i + 2]
        orders.append(math.log2(abs(d1 / d2)) if d2 != 0 else float("nan"))

    cauchy = []
    for a, b in zip(grids, grids[1:]):
        fine = _coarsen_cells(fields[b], b // a)
        cauchy.append(float(np.linalg.norm(fine - fields[a])) / a ** (cfg["grid.dim"] / 2))
    cauchy_orders = [
        math.log2(cauchy[i] / cauchy[i + 1]) for i in range(len(cauchy) - 1)
    ]

    for i, n in enumerate(grids):
        report.summary.append(
            {
                "mode": "spatial",
                "n": n,
                "dt": cfg["time.dt"],
                "amp_error": errors[i],
                "cauchy_diff": cauchy[i] if i < len(cauchy) else float("nan"),
                "observed_order": orders[i - 1] if 0 < i <= len(orders) else float("nan"),
                "cauchy_order": cauchy_orders[i - 1] if 0 < i <= len(cauchy_orders) else float("nan"),
                "energy_residual": energy_balance_residual(report.ledgers[f"n{n}"]),
            }
        )
    report.notes["spatial_orders"] = orders
    report.notes["cauchy_orders"] = cauchy_orders
    report.curves["spatial_error_vs_h"] = (
        "h",
        "|amplitude error|",
        [([1.0 / n for n in grids], [abs(e) for e in errors], "amp error")],
    )


def _refine_time(cfg, subs, labels, report):
    grid = Grid(cfg["grid.dim"], cfg["grid.n"])
    dts = [sub["time.dt"] for sub in subs]

    def one(sub):
        sim = build_simulation(sub, phi=_smooth_phi(grid))
        sim.run()
        return sim.ledger, sim.state.phi.data

    results = _run_parallel([lambda sub=sub: one(sub) for sub in subs])
    residuals = []
    fields = []
    for label, (ledger, phi) in zip(labels, results):
        residuals.append(energy_balance_residual(ledger))
        fields.append(phi)
        report.ledgers[label] = ledger
    cauchy = [
        float(np.linalg.norm(a - b)) * grid.cell_volume**0.5
        for a, b in zip(fields, fields[1:])
    ]
    for i, dt in enumerate(dts):
        ratio = residuals[i - 1] / residuals[i] if i > 0 and residuals[i] else float("nan")
        report.summary.append(
            {
                "mode": "temporal",
                "n": cfg["grid.n"],
                "dt": dt,
                "energy_residual": residuals[i],
                "residual_ratio": ratio,
                "cauchy_diff": cauchy[i] if i < len(cauchy) else float("nan"),
            }
        )
    report.notes["energy_residuals"] = residuals
    report.curves["energy_residual_vs_dt"] = (
        "dt",
        "normalized energy residual",
        [(list(dts), residuals, "residual")],
    )


# ---------------------------------------------------------------------------
# r sweep

def run_r_sweep(plan):
    """Same initial data across absorption exponents r."""
    r_list = plan.params["r_sweep.r_list"]
    if not r_list:
        raise PreconditionError("r_sweep plan needs a non-empty r list")
    if any(r > 5.0 for r in r_list):
        raise PreconditionError(f"r list must lie in [1, 5], got {r_list}")
    subs = [_entry_config(plan.base, "r_sweep.r_list", r, physics__r=r) for r in r_list]
    labels = _run_labels("r_sweep.r_list", r_list, "r{:g}")

    def one(sub):
        sim = build_simulation(sub)
        sim.run()
        return sim.ledger, sim.params

    results = _run_parallel([lambda sub=sub: one(sub) for sub in subs])
    report = ExperimentReport(kind="r_sweep")
    kinetics, damp_totals = [], []
    for r, label, (ledger, params) in zip(r_list, labels, results):
        recs = ledger.records
        terminal_kin = recs[-1].kinetic
        damp_total = sum(rec.damp_diss for rec in recs[1:]) * params.dt
        kinetics.append(terminal_kin)
        damp_totals.append(damp_total)
        report.ledgers[label] = ledger
        report.summary.append(
            {
                "r": r,
                "terminal_kinetic": terminal_kin,
                "total_damp_diss": damp_total,
                "critical": params.critical,
            }
        )

    report.curves["terminal_kinetic_vs_r"] = (
        "r", "terminal kinetic energy", [(list(r_list), kinetics, "kinetic")],
    )
    report.curves["total_damping_vs_r"] = (
        "r", "integrated damping dissipation", [(list(r_list), damp_totals, "damping")],
    )
    return report


# ---------------------------------------------------------------------------
# continuous dependence

def _perturbation_directions(study, cfg, deltas, seed):
    """Unit-norm perturbations (solenoidal velocity, mean-zero scalar), once
    each delta's D(0), measured before any step, is positive and within 1e-6
    of delta^2 (|zhat|^2 + |rho_hat|_*^2 + |rho_hat|^2): else D(T)/D(0)
    divides by 0 (delta^2 underflows) or by roundoff (base + delta * direction
    rounds the perturbation away)."""
    base = build_simulation(cfg).state
    grid = base.u.grid
    rng = np.random.default_rng(seed)
    z, _ = helmholtz_project(rand_vector(grid, rng))
    zn = vector_norm(z)
    zhat = VectorField(grid, tuple(a / zn for a in z.components))
    rho = rand_scalar(grid, rng, mean_zero=True).data
    rho /= np.linalg.norm(rho) * grid.cell_volume**0.5
    zero = initial_state(grid, phi=0.0 * rho)
    unit = _dependence_distance(zero, _perturbed(zero, 1.0, zhat, rho))
    for delta in deltas:
        d0 = _dependence_distance(base, _perturbed(base, delta, zhat, rho))
        if not (d0 > 0.0 and abs(d0 - delta**2 * unit) <= 1e-6 * delta**2 * unit):
            raise PreconditionError(
                f"{study} needs D(0) > 0 within 1e-6 of delta^2 (|zhat|^2 + |rho_hat|_*^2 + "
                f"|rho_hat|^2) = {delta**2 * unit:.6g}, got D(0) = {d0:.6g} at delta={delta:g}")
    return zhat, rho


def _dependence_distance(s1, s2):
    z = VectorField(s1.u.grid, [a - b for a, b in zip(s1.u.components, s2.u.components)])
    star, l2 = hminus1_distance(s1.phi, s2.phi)
    return vector_norm(z) ** 2 + star**2 + l2**2


def _perturbed(base, delta, zhat, rho_hat):
    """The state ``base`` plus delta times the unit directions."""
    u = VectorField(base.u.grid, [a + delta * b for a, b in zip(base.u.components, zhat.components)])
    return initial_state(base.u.grid, phi=base.phi.data + delta * rho_hat, u=u)


def _paired_run(cfg, delta, zhat, rho_hat, samples, max_steps=None):
    """Lockstep base/perturbed runs of ``cfg`` over its steps (at most
    ``max_steps``), D(t) sampled every ``n_steps // samples`` steps; returns
    (times, D(t) samples, base ledger)."""
    sim1 = build_simulation(cfg)
    start = _perturbed(sim1.state, delta, zhat, rho_hat)
    sim2 = build_simulation(cfg, phi=start.phi.data, u=start.u)
    n_steps = sim1.params.n_steps
    if max_steps is not None:
        n_steps = min(n_steps, max_steps)
    sample_every = max(1, n_steps // samples)
    times = [0.0]
    dists = [_dependence_distance(sim1.state, sim2.state)]
    for k in range(1, n_steps + 1):
        sim1.step()
        sim2.step()
        if k % sample_every == 0 or k == n_steps:
            times.append(sim1.state.t)
            dists.append(_dependence_distance(sim1.state, sim2.state))
    return times, dists, sim1.ledger


def run_continuous_dependence(plan):
    """Trajectory distance D(t) = ||z||^2 + ||rho||_*^2 + ||rho||^2 vs delta."""
    deltas = plan.params["continuous_dependence.delta_list"]
    if len(deltas) < 3:
        raise PreconditionError("continuous dependence needs >= 3 perturbation sizes")
    labels = _run_labels("continuous_dependence.delta_list", deltas, "delta{:g}")
    cfg = plan.base
    zhat, rho_hat = _perturbation_directions("continuous dependence", cfg, deltas, plan.seed)

    def one(delta):
        return _paired_run(cfg, delta, zhat, rho_hat, 50)

    results = _run_parallel([lambda d=d: one(d) for d in deltas])
    report = ExperimentReport(kind="continuous_dependence")
    series = []
    terminals = []
    for delta, label, (times, dists, ledger) in zip(deltas, labels, results):
        d0, dT = dists[0], dists[-1]
        terminals.append(dT)
        amp = dT / d0
        growth = _growth_fit(times, dists)
        report.ledgers[label] = ledger
        report.summary.append(
            {
                "delta": delta,
                "D0": d0,
                "DT": dT,
                "amplification": amp,
                "exp_rate_fit": growth,
            }
        )
        series.append((times, dists, f"delta={delta:g}"))

    # zero-perturbation control: identical runs, D must vanish
    _, dists0, _ = _paired_run(cfg, 0.0, zhat, rho_hat, 20, max_steps=20)
    report.notes["zero_delta_max_D"] = max(dists0)
    report.notes["terminal_ratios"] = [
        terminals[i] / terminals[i + 1] if terminals[i + 1] else float("nan")
        for i in range(len(terminals) - 1)
    ]
    report.curves["distance_vs_time"] = ("t", "D(t)", series)
    report.curves["terminal_distance_vs_delta"] = (
        "delta", "D(T)", [(list(deltas), terminals, "terminal D")],
    )
    return report


def _growth_fit(times, dists):
    """Smallest c with D(t) <= D(0) exp(c t) along the sampled trajectory."""
    d0 = dists[0]
    best = 0.0
    for t, d in zip(times[1:], dists[1:]):
        if d > 0 and t > 0:
            best = max(best, math.log(d / d0) / t)
    return best


def run_beta_nu_probe(plan):
    """Amplification landscape over (beta, nu) pairs at r = 3; descriptive."""
    betas = plan.params["beta_nu.beta_list"]
    nus = plan.params["beta_nu.nu_list"]
    delta = plan.params["beta_nu.delta"]
    if not betas or len(betas) != len(nus):
        raise PreconditionError("beta_nu probe needs equal-length beta and nu lists")
    products = [b * n for b, n in zip(betas, nus)]
    if not (min(products) <= 1.0 <= max(products)):
        raise PreconditionError(
            f"beta*nu products {products} must straddle the critical line beta*nu = 1"
        )
    cfg = plan.base
    r3 = cfg.with_updates(physics__r=3.0)
    subs = [_entry_config(_entry_config(r3, "beta_nu.beta_list", b, physics__beta=b),
                          "beta_nu.nu_list", n, physics__nu=n)
            for b, n in zip(betas, nus)]
    zhat, rho_hat = _perturbation_directions("beta_nu probe", cfg, [delta], plan.seed)

    def one(sub):
        _, dists, _ = _paired_run(sub, delta, zhat, rho_hat, 20)
        return dists[0], dists[-1]

    results = _run_parallel([lambda sub=sub: one(sub) for sub in subs])
    rows = []
    for (beta, nu), (d0, dT) in zip(zip(betas, nus), results):
        amp = dT / d0
        rows.append(
            {
                "beta_nu": beta * nu,
                "beta": beta,
                "nu": nu,
                "D0": d0,
                "DT": dT,
                "amplification": amp,
            }
        )
    rows.sort(key=lambda row: row["beta_nu"])
    report = ExperimentReport(kind="beta_nu_probe")
    report.summary = rows
    report.curves["amplification_vs_beta_nu"] = (
        "beta*nu",
        "D(T)/D(0)",
        [([row["beta_nu"] for row in rows], [row["amplification"] for row in rows], "amplification")],
    )
    return report


# ---------------------------------------------------------------------------
# epsilon sweep

def run_epsilon_sweep(plan):
    """Regularization ladder: same spinodal data, decreasing clamp width."""
    eps_list = plan.params["epsilon_sweep.eps_list"]
    if len(eps_list) < 3:
        raise PreconditionError("epsilon sweep needs >= 3 decreasing entries")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise PreconditionError(f"epsilon list must be strictly decreasing, got {eps_list}")
    cfg = plan.base
    if abs(cfg["init.phi_mean"]) + cfg["init.noise_amp"] > 1.0 - max(eps_list):
        raise PreconditionError(
            "initial data must satisfy |phi| <= 1 - eps for every eps in the list"
        )

    subs = [_entry_config(
        cfg, "epsilon_sweep.eps_list", eps, potential__kind="regularized",
        potential__epsilon=eps, mobility__kind="clamped", mobility__epsilon=eps,
    ) for eps in eps_list]
    labels = _run_labels("epsilon_sweep.eps_list", eps_list, "eps{:g}")
    # companion run with the raw logarithmic potential: |phi| must stay < 1
    log_cfg = cfg.with_updates(
        potential__kind="logarithmic", mobility__kind="clamped", mobility__epsilon=eps_list[0],
    )

    def one(sub):
        sim = build_simulation(sub)
        entropy = EntropyFunction(sim.mob)
        overshoot = [overshoot_functional(sim.state.phi)]
        ent = [entropy_functional(sim.state.phi, entropy)]
        for _ in range(sim.params.n_steps):
            sim.step()
            overshoot.append(overshoot_functional(sim.state.phi))
            ent.append(entropy_functional(sim.state.phi, entropy))
        return sim.ledger, overshoot, ent

    results = _run_parallel([lambda sub=sub: one(sub) for sub in subs])
    report = ExperimentReport(kind="epsilon_sweep")
    terminal_overshoot = []
    over_series, ent_series = [], []
    for eps, label, (ledger, overshoot, ent) in zip(eps_list, labels, results):
        times = [rec.t for rec in ledger.records]
        terminal_overshoot.append(overshoot[-1])
        report.ledgers[label] = ledger
        report.summary.append(
            {
                "eps": eps,
                "initial_overshoot": overshoot[0],
                "terminal_overshoot": overshoot[-1],
                "max_overshoot": max(overshoot),
                "entropy_initial": ent[0],
                "entropy_max": max(ent),
                "phi_max": max(rec.phi_max for rec in ledger.records),
            }
        )
        over_series.append((times, overshoot, f"eps={eps:g}"))
        ent_series.append((times, ent, f"eps={eps:g}"))

    report.notes["terminal_overshoots"] = terminal_overshoot
    report.notes["weakly_decreasing"] = all(
        b <= a + 1e-14 for a, b in zip(terminal_overshoot, terminal_overshoot[1:])
    )

    sim_log = build_simulation(log_cfg)
    sim_log.run()
    report.ledgers["logarithmic"] = sim_log.ledger
    report.notes["log_phi_max"] = max(rec.phi_max for rec in sim_log.ledger.records)

    report.curves["overshoot_vs_time"] = ("t", "overshoot functional", over_series)
    report.curves["entropy_vs_time"] = ("t", "entropy functional", ent_series)
    report.curves["terminal_overshoot_vs_eps"] = (
        "eps", "terminal overshoot",
        [(list(eps_list), terminal_overshoot, "overshoot")],
    )
    return report


_RUNNERS = {
    "refinement": run_refinement,
    "r_sweep": run_r_sweep,
    "beta_nu_probe": run_beta_nu_probe,
    "continuous_dependence": run_continuous_dependence,
    "epsilon_sweep": run_epsilon_sweep,
}
