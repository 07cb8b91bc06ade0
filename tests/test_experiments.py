"""Experiment plans, determinism and the study-level assertions."""

import os

import numpy as np
import pytest

import chns.solver
from chns.checks import ledger_div_max, ledger_energy_rise, ledger_mass_drift
from chns.errors import ConfigError, ParameterError, PreconditionError
from chns.experiments import (
    _growth_fit,
    parse_plan,
    run_beta_nu_probe,
    run_continuous_dependence,
    run_epsilon_sweep,
    run_experiment,
    run_r_sweep,
    run_refinement,
)

from conftest import spy

FAST_BASE = """
grid.n = 16
time.dt = 2e-4
time.t_final = 1e-3
init.velocity = vortex
init.velocity_amp = 0.2
"""


def plan_text(kind, extra, base=FAST_BASE):
    return f"experiment.kind = {kind}\n{extra}\n{base}"


def overriding(kind, extra, base=FAST_BASE):
    """A plan of ``kind`` whose ``extra`` lines replace the lines of ``base``
    that set the same keys: a plan sets each key once."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in base.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join([f"experiment.kind = {kind}", *kept, extra])


def test_plan_parsing_and_errors():
    plan = parse_plan(plan_text("r_sweep", "r_sweep.r_list = 1, 2"))
    assert plan.kind == "r_sweep"
    assert plan.params["r_sweep.r_list"] == [1.0, 2.0]
    with pytest.raises(ParameterError):
        parse_plan(plan_text("unknown_kind", ""))
    with pytest.raises(ConfigError):
        parse_plan("experiment.kind = r_sweep\nbogus.key = 1\n")


def assert_ledger_invariants(ledger, forcing_free=True):
    assert ledger_mass_drift(ledger) <= 1e-12
    assert ledger_div_max(ledger) <= 1e-9
    if forcing_free:
        assert ledger_energy_rise(ledger) <= 1e-12 * max(ledger.records[0].energy, 1.0)


@pytest.mark.parametrize("kind, extra, message", [
    ("beta_nu_probe", "beta_nu.beta_list = 2, 3\nbeta_nu.nu_list = 1, 1",
     r"beta\*nu products \[2.0, 3.0\] must straddle the critical line"),
    ("beta_nu_probe", "beta_nu.beta_list = 1, 2\nbeta_nu.nu_list = 1",
     "beta_nu probe needs equal-length beta and nu lists"),
    # D(0) is measured before any step: delta = 0 makes it 0, so D(T)/D(0) is undefined
    ("beta_nu_probe", "beta_nu.beta_list = 0.5, 2\nbeta_nu.nu_list = 1, 1\nbeta_nu.delta = 0",
     r"beta_nu probe needs D\(0\) > 0 within 1e-6 of .* = 0, got D\(0\) = 0 at delta=0$"),
    # a nonzero delta can still give D(0) = 0.0 (here delta^2 underflows)
    ("beta_nu_probe", "beta_nu.beta_list = 0.5, 2\nbeta_nu.nu_list = 1, 1\nbeta_nu.delta = 1e-170",
     r"beta_nu probe needs D\(0\) > 0 .* = 0, got D\(0\) = 0 at delta=1e-170$"),
    ("continuous_dependence", "continuous_dependence.delta_list = 1e-2, 5e-3",
     "continuous dependence needs >= 3 perturbation sizes"),
    ("continuous_dependence", "continuous_dependence.delta_list = 0, 5e-3, 2.5e-3",
     r"continuous dependence needs D\(0\) > 0 .* = 0, got D\(0\) = 0 at delta=0$"),
    ("continuous_dependence", "continuous_dependence.delta_list = 1e-170, 5e-171, 2.5e-171",
     r"continuous dependence needs D\(0\) > 0 .* = 0, got D\(0\) = 0 at delta=1e-170$"),
    # base + delta * direction keeps only part of a 1e-18 perturbation: D(0) is roundoff
    ("continuous_dependence", "continuous_dependence.delta_list = 1e-18, 5e-19, 2.5e-19",
     r"continuous dependence needs D\(0\) > 0 within 1e-6 of delta\^2 \(\|zhat\|\^2 \+ "
     r"\|rho_hat\|_\*\^2 \+ \|rho_hat\|\^2\) = \d\.\d+e-36, got D\(0\) = \S+ at delta=1e-18$"),
    ("epsilon_sweep", "epsilon_sweep.eps_list = 0.2, 0.1",
     "epsilon sweep needs >= 3 decreasing entries"),
    ("epsilon_sweep", "epsilon_sweep.eps_list = 0.05, 0.1, 0.2",
     r"epsilon list must be strictly decreasing, got \[0.05, 0.1, 0.2\]"),
    ("r_sweep", "", "r_sweep plan needs a non-empty r list"),
    ("r_sweep", "r_sweep.r_list = 1, 6", r"r list must lie in \[1, 5\], got \[1.0, 6.0\]"),
    ("refinement", "", "refinement plan needs >= 3 grid sizes or >= 3 time steps"),
    ("refinement", "refinement.grid_list = 16, 32",
     r"^key 'refinement\.grid_list': needs >= 3 entries, got \[16, 32\]$"),
    # each list the plan sets needs 3 entries, whatever the other list holds
    ("refinement", "refinement.grid_list = 8, 16\nrefinement.dt_list = 2e-4, 1e-4, 5e-5",
     r"^key 'refinement\.grid_list': needs >= 3 entries, got \[8, 16\]$"),
    ("refinement", "refinement.grid_list = 8, 16, 32\nrefinement.dt_list = 2e-4, 1e-4",
     r"^key 'refinement\.dt_list': needs >= 3 entries, got \[0\.0002, 0\.0001\]$"),
    ("refinement", "refinement.grid_list = 8, 16, 32\npotential.kind = regularized",
     "spatial refinement oracle needs regular/logarithmic potential"),
    ("refinement", "refinement.grid_list = 8, 12, 16",
     r"spatial refinement needs each grid size to double the one before, got \[8, 12, 16\]"),
    ("refinement", "refinement.grid_list = 32, 16, 8", "each grid size to double"),
], ids=["beta-nu-no-straddle", "beta-nu-unequal-lists", "beta-nu-zero-delta", "beta-nu-tiny-delta",
        "dependence-two-deltas", "dependence-zero-delta", "dependence-tiny-delta",
        "dependence-roundoff-delta", "eps-list-short", "eps-list-increasing",
        "r-list-empty", "r-list-above-5", "refine-no-lists", "refine-two-grids",
        "refine-two-grids-three-dts", "refine-two-dts-three-grids", "refine-regularized",
        "refine-grids-not-doubling", "refine-grids-decreasing"])
def test_study_failure_paths_are_named(kind, extra, message, monkeypatch):
    # the row's keys replace FAST_BASE's
    calls = []
    spy(monkeypatch, calls, "step", "step", chns.solver.Simulation)
    with pytest.raises(PreconditionError, match=message):
        run_experiment(parse_plan(overriding(kind, extra)))
    assert calls == []  # raised before any step


@pytest.mark.parametrize("kind, extra, error, message", [
    ("epsilon_sweep", "epsilon_sweep.eps_list = 0.2, 0.1, 0", ConfigError,
     r"^key 'epsilon_sweep\.eps_list': entry 0\.0: key 'potential\.epsilon': "
     r"must lie in \(0, 0\.5\]$"),
    ("beta_nu_probe", "beta_nu.beta_list = 2, 0.5\nbeta_nu.nu_list = 1, 0", ConfigError,
     r"^key 'beta_nu\.nu_list': entry 0\.0: key 'physics\.nu': viscosity must be positive$"),
    ("beta_nu_probe", "beta_nu.beta_list = 2, -1\nbeta_nu.nu_list = 1, 1", ConfigError,
     r"^key 'beta_nu\.beta_list': entry -1\.0: key 'physics\.beta': "
     r"damping coefficient must be >= 0$"),
    ("refinement", "refinement.grid_list = 8, 16, 32, 64\ngrid.dim = 3", ConfigError,
     r"^key 'refinement\.grid_list': entry 64: key 'grid\.n': "
     r"3D runs are supported up to n = 32, got 64$"),
    ("refinement", "refinement.grid_list = 0, 0, 0", ConfigError,
     r"^key 'refinement\.grid_list': entry 0: key 'grid\.n': must be >= 8, got 0$"),
    ("refinement", "refinement.grid_list = 4, 8, 16", ConfigError,
     r"^key 'refinement\.grid_list': entry 4: key 'grid\.n': must be >= 8, got 4$"),
    ("refinement", "refinement.dt_list = 4e-4, 3e-4, 2e-4\ntime.t_final = 0.002", ConfigError,
     r"^key 'refinement\.dt_list': entry 0\.0003: key 'time\.t_final': must be a whole number "
     r"of steps of time\.dt = 0\.0003, got 6\.66667 steps$"),
    ("refinement", "refinement.dt_list = 0, 1e-4, 5e-5", ConfigError,
     r"^key 'refinement\.dt_list': entry 0\.0: key 'time\.dt': must be positive$"),
    ("r_sweep", "r_sweep.r_list = 0.5, 3", ConfigError,
     r"^key 'r_sweep\.r_list': entry 0\.5: key 'physics\.r': "
     r"absorption exponent must satisfy r >= 1, got 0\.5$"),
    # two entries whose run labels agree would write one run file
    ("r_sweep", "r_sweep.r_list = 2, 3, 3.0000001", PreconditionError,
     r"^key 'r_sweep\.r_list': entries 3\.0 and 3\.0000001 share the run label 'r3'$"),
    ("continuous_dependence", "continuous_dependence.delta_list = 1e-2, 1e-2, 5e-3",
     PreconditionError, r"^key 'continuous_dependence\.delta_list': entries 0\.01 and 0\.01 "
     r"share the run label 'delta0\.01'$"),
    ("epsilon_sweep", "epsilon_sweep.eps_list = 0.2, 0.1000001, 0.1", PreconditionError,
     r"^key 'epsilon_sweep\.eps_list': entries 0\.1000001 and 0\.1 share the run label "
     r"'eps0\.1'$"),
    ("refinement", "refinement.dt_list = 2e-4, 1e-4, 1e-4", PreconditionError,
     r"^key 'refinement\.dt_list': entries 0\.0001 and 0\.0001 share the run label "
     r"'dt0\.0001'$"),
], ids=["eps-list-zero", "beta-nu-zero-nu", "beta-nu-negative-beta", "refine-3d-grids-past-32",
        "refine-grids-too-small", "refine-grids-too-small-doubling", "refine-dt-off-t-final",
        "refine-dt-zero", "r-sweep-below-one", "r-sweep-shared-label",
        "dependence-shared-label", "eps-shared-label", "refine-dt-shared-label"])
def test_study_run_configs_are_validated_before_any_step(kind, extra, error, message,
                                                         monkeypatch):
    # a list entry the base config would refuse fails as a ConfigError under
    # the plan's list key, naming the entry, and two entries that would
    # share a run file fail as a PreconditionError naming both, before the
    # study's first step
    calls = []
    spy(monkeypatch, calls, "step", "step", chns.solver.Simulation)
    with pytest.raises(error, match=message):
        run_experiment(parse_plan(overriding(kind, extra)))
    assert calls == []


def test_refinement_base_dt_that_misses_t_final_fails_at_parse():
    # the base config of every plan is validated, so a spatial refinement
    # whose base dt misses t_final is refused before any study code runs
    text = overriding("refinement", "refinement.grid_list = 8, 16, 32\ntime.dt = 1.0001e-4")
    with pytest.raises(ConfigError, match=r"^key 'time\.t_final': must be a whole number of "
                                          r"steps of time\.dt = 0\.00010001, got 9\.999 steps$"):
        parse_plan(text)


def test_r_sweep_report():
    plan = parse_plan(plan_text("r_sweep", "r_sweep.r_list = 1, 3"))
    rep = run_r_sweep(plan)
    assert [row["r"] for row in rep.summary] == [1.0, 3.0]
    assert rep.summary[1]["critical"] is True
    assert set(rep.ledgers) == {"r1", "r3"}
    # every run's ledger satisfies the conservation suite on its own
    for ledger in rep.ledgers.values():
        assert_ledger_invariants(ledger)


def test_r_sweep_determinism(tmp_path):
    plan = parse_plan(plan_text("r_sweep", "r_sweep.r_list = 1, 2, 3"))
    rep1 = run_r_sweep(plan)
    rep2 = run_r_sweep(plan)
    assert rep1.summary == rep2.summary
    paths = rep1.write(str(tmp_path))
    assert any(p.endswith("summary.csv") for p in paths)
    assert sum(p.endswith(".csv") for p in paths) >= 4  # 3 runs + summary


def test_refinement_spatial_orders():
    plan = parse_plan(
        "experiment.kind = refinement\n"
        "refinement.grid_list = 16, 32, 64\n"
        "grid.n = 16\ntime.dt = 2e-5\ntime.t_final = 1.6e-3\n"
        "init.noise_amp = 0.0\n"
    )
    rep = run_refinement(plan)
    for order in rep.notes["spatial_orders"]:
        assert 1.6 <= order <= 2.4
    for order in rep.notes["cauchy_orders"]:
        assert 1.6 <= order <= 2.4
    modes = {row["mode"] for row in rep.summary}
    assert modes == {"spatial"}
    assert "spatial_error_vs_h" in rep.curves


def test_refinement_oracle_carries_the_mobility():
    # a small mode decays at m(phi_mean) lam (lam + F''(phi_mean)); with the
    # clamped mobility m(0.5) = 0.75, an oracle without m leaves an error
    # floor near 2.7e-4 on every grid
    plan = parse_plan(
        "experiment.kind = refinement\n"
        "refinement.grid_list = 16, 32, 64\n"
        "potential.kind = logarithmic\ninit.phi_mean = 0.5\nmobility.kind = clamped\n"
        "time.dt = 2e-5\ntime.t_final = 1.6e-3\n"
    )
    rep = run_refinement(plan)
    errors = [abs(row["amp_error"]) for row in rep.summary]
    assert errors == sorted(errors, reverse=True)
    assert max(errors) <= 2e-5


def test_refinement_zero_amplitude_reports_nan_orders(tmp_path):
    # every difference is 0, so no order is defined
    from chns.cli import main

    plan = tmp_path / "flat.plan"
    plan.write_text(
        "experiment.kind = refinement\n"
        "refinement.grid_list = 8, 16, 32\nrefinement.amplitude = 0\n"
        "time.dt = 2e-4\ntime.t_final = 1e-3\n"
    )
    assert main(["experiment", "--plan", str(plan), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "refinement" / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [row["amp_error"] for row in rows] == ["0.0"] * 3
    assert all(row[col] == "nan" for row in rows for col in ("observed_order", "cauchy_order"))
    notes = (tmp_path / "refinement" / "notes.csv").read_text().splitlines()
    assert notes[1:] == ["cauchy_orders,[nan]", "spatial_orders,[nan]"]


def test_refinement_temporal_residuals_decrease():
    plan = parse_plan(
        "experiment.kind = refinement\n"
        "refinement.dt_list = 4e-4, 2e-4, 1e-4\n"
        "grid.n = 32\ntime.t_final = 4e-3\n"
    )
    rep = run_refinement(plan)
    res = rep.notes["energy_residuals"]
    assert res[0] > res[1] > res[2]


def test_refinement_with_both_lists_writes_one_summary(tmp_path):
    # spatial and temporal rows carry different columns; the summary header
    # is their union and a row leaves the columns it lacks empty
    from chns.cli import main

    plan = tmp_path / "both.plan"
    plan.write_text(
        "experiment.kind = refinement\n"
        "refinement.grid_list = 8, 16, 32\n"
        "refinement.dt_list = 4e-4, 2e-4, 1e-4\n"
        "grid.n = 16\ntime.t_final = 2e-3\n"
    )
    assert main(["experiment", "--plan", str(plan), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "refinement" / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert len(header) == 9 and {"amp_error", "residual_ratio"} <= set(header)
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [row["mode"] for row in rows] == ["spatial"] * 3 + ["temporal"] * 3
    assert all(row["residual_ratio"] == "" for row in rows[:3])
    assert all(row["amp_error"] == "" for row in rows[3:])


def test_plan_value_error_names_line_and_key():
    message = r"^line 2: key 'r_sweep.r_list': cannot parse value '1, x'$"
    with pytest.raises(ConfigError, match=message):
        parse_plan("experiment.kind = r_sweep\nr_sweep.r_list = 1, x\n")


def test_refinement_determinism():
    text = (
        "experiment.kind = refinement\n"
        "refinement.grid_list = 16, 32, 64\n"
        "time.dt = 5e-5\ntime.t_final = 5e-4\ninit.noise_amp = 0.0\n"
    )
    r1 = run_refinement(parse_plan(text))
    r2 = run_refinement(parse_plan(text))
    assert repr(r1.summary) == repr(r2.summary)  # nan-tolerant comparison


def test_continuous_dependence_scaling():
    plan = parse_plan(plan_text(
        "continuous_dependence",
        "continuous_dependence.delta_list = 1e-2, 5e-3, 2.5e-3",
        base="grid.n = 32\ntime.dt = 2e-4\ntime.t_final = 4e-3\n"
             "physics.nu = 2.0\nphysics.r = 3\ninit.velocity = vortex\n",
    ))
    rep = run_continuous_dependence(plan)
    assert rep.notes["zero_delta_max_D"] <= 1e-20
    for ratio in rep.notes["terminal_ratios"]:
        assert 3.0 <= ratio <= 5.0
    # D decays here: the fitted rate is the largest log(D/D0)/t, negative
    _, _, series = rep.curves["distance_vs_time"]
    for row, (times, dists, _) in zip(rep.summary, series):
        rates = [np.log(d / dists[0]) / t for t, d in zip(times[1:], dists[1:])]
        assert row["exp_rate_fit"] == pytest.approx(max(rates), rel=1e-12)
        assert row["exp_rate_fit"] < 0.0


def test_growth_fit_without_a_positive_sample_is_nan():
    assert np.isnan(_growth_fit([0.0, 0.1, 0.2], [1.0, 0.0, 0.0]))
    assert _growth_fit([0.0, 0.5], [1.0, 2.0]) == pytest.approx(2.0 * np.log(2.0))


def test_beta_nu_probe_sorted_and_bounded():
    plan = parse_plan(plan_text(
        "beta_nu_probe",
        "beta_nu.beta_list = 2.0, 0.5, 1.0\nbeta_nu.nu_list = 2.0, 2.0, 1.0\n"
        "beta_nu.delta = 1e-2",
        base="grid.n = 16\ntime.dt = 2e-4\ntime.t_final = 2e-3\n"
             "init.velocity = vortex\n",
    ))
    rep = run_beta_nu_probe(plan)
    products = [row["beta_nu"] for row in rep.summary]
    assert products == sorted(products)
    by_product = {row["beta_nu"]: row["amplification"] for row in rep.summary}
    assert by_product[4.0] <= 10.0 * by_product[1.0]
    assert all(np.isfinite(row["amplification"]) for row in rep.summary)


def test_epsilon_sweep_overshoot_and_entropy():
    plan = parse_plan(plan_text(
        "epsilon_sweep",
        "epsilon_sweep.eps_list = 0.2, 0.1, 0.05",
        base="grid.n = 16\ntime.dt = 2e-4\ntime.t_final = 2e-3\n"
             "init.noise_amp = 0.05\n",
    ))
    rep = run_epsilon_sweep(plan)
    assert rep.notes["weakly_decreasing"]
    assert rep.notes["log_phi_max"] < 1.0
    for row in rep.summary:
        # start inside the pure phases: zero initial overshoot
        assert row["initial_overshoot"] == 0.0
        assert row["max_overshoot"] >= row["terminal_overshoot"] >= 0.0
        assert row["entropy_max"] <= 2.0 * max(row["entropy_initial"], 1e-12)
    assert "terminal_overshoot_vs_eps" in rep.curves
    assert set(rep.ledgers) == {"eps0.2", "eps0.1", "eps0.05", "logarithmic"}
    for ledger in rep.ledgers.values():
        assert_ledger_invariants(ledger)


def test_epsilon_sweep_rejects_data_outside_clamp():
    plan = parse_plan(plan_text(
        "epsilon_sweep",
        "epsilon_sweep.eps_list = 0.2, 0.1, 0.05",
        base="grid.n = 16\ninit.phi_mean = 0.9\ninit.noise_amp = 0.0\n",
    ))
    with pytest.raises(PreconditionError):
        run_epsilon_sweep(plan)



def test_newton_fallback_fires_on_rough_epsilon_sweep(monkeypatch):
    # rough data near the pure phases stalls the CH fixed point on the
    # log-potential companion's first step, so Newton-GMRES takes over
    calls = []
    spy(monkeypatch, calls, 1, "gmres", chns.solver)
    plan = parse_plan(plan_text(
        "epsilon_sweep",
        "epsilon_sweep.eps_list = 0.2, 0.1, 0.05",
        base="grid.n = 32\ntime.dt = 1e-4\ntime.t_final = 5e-4\n"
             "init.noise_amp = 0.8\ninit.seed = 1234\n",
    ))
    rep = run_epsilon_sweep(plan)
    assert len(calls) >= 1
    for ledger in rep.ledgers.values():
        assert_ledger_invariants(ledger)


def test_report_write_tree(tmp_path):
    plan = parse_plan(plan_text(
        "continuous_dependence", "continuous_dependence.delta_list = 1e-2, 5e-3, 2.5e-3"))
    rep = run_experiment(plan)
    paths = rep.write(str(tmp_path))
    root = tmp_path / "continuous_dependence"
    assert (root / "run_delta0.01.csv").exists()
    assert (root / "summary.csv").exists()
    assert (root / "terminal_distance_vs_delta.svg").exists()
    assert (root / "notes.csv").read_text().splitlines()[0] == "key,value"
    header = (root / "run_delta0.01.csv").read_text().splitlines()[0]
    assert header == "t,mass,kinetic,interfacial,bulk,visc_diss,damp_diss,mob_diss,work,div_max,phi_max"
    for p in paths:
        assert os.path.commonpath([str(tmp_path), p]) == str(tmp_path)
