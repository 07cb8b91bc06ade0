"""Experiment plans, determinism and the study-level assertions."""

import os

import numpy as np
import pytest

import chns.solver
from chns.checks import ledger_energy_rise, ledger_mass_drift
from chns.errors import ConfigError, ParameterError, PreconditionError
from chns.experiments import (
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
    assert max(r.div_max for r in ledger.records) <= 1e-9
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
    ("refinement", "refinement.grid_list = 16, 32",
     "refinement plan needs >= 3 grid sizes or >= 3 time steps"),
    ("refinement", "refinement.grid_list = 8, 16, 32\npotential.kind = regularized",
     "spatial refinement oracle needs regular/logarithmic potential"),
], ids=["beta-nu-no-straddle", "beta-nu-unequal-lists", "beta-nu-zero-delta", "beta-nu-tiny-delta",
        "dependence-two-deltas", "dependence-zero-delta", "dependence-tiny-delta",
        "dependence-roundoff-delta", "eps-list-short", "eps-list-increasing",
        "r-list-empty", "r-list-above-5", "refine-two-grids", "refine-regularized"])
def test_study_failure_paths_are_named(kind, extra, message):
    with pytest.raises(PreconditionError, match=message):
        run_experiment(parse_plan(plan_text(kind, extra)))


def test_r_sweep_report_and_references():
    plan = parse_plan(plan_text("r_sweep", "r_sweep.r_list = 1, 3"))
    rep = run_r_sweep(plan)
    assert [row["r"] for row in rep.summary] == [1.0, 3.0]
    assert all(row["min_step_pairing"] >= -1e-12 for row in rep.summary)
    assert rep.summary[1]["critical"] is True
    assert rep.notes["linear_drag_max_diff"] <= 1e-12
    assert rep.notes["beta_zero_max_diff"] <= 1e-10
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
    for row in rep.summary:
        assert np.isfinite(row["exp_rate_fit"])
    assert "distance_vs_time" in rep.curves


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


def test_epsilon_sweep_reads_potential_c0(tmp_path):
    # the sweep builds its materials from the plan, so a set c0 changes the
    # convex-concave split of every run
    ledgers = {}
    for c0 in ("auto", "1.0"):
        plan = parse_plan(plan_text(
            "epsilon_sweep",
            "epsilon_sweep.eps_list = 0.2, 0.1, 0.05",
            base="grid.n = 16\ntime.dt = 2e-4\ntime.t_final = 1e-3\n"
                 f"init.noise_amp = 0.3\npotential.c0 = {c0}\n",
        ))
        out = tmp_path / c0
        run_epsilon_sweep(plan).write(str(out))
        ledgers[c0] = {p.name: p.read_bytes() for p in (out / "epsilon_sweep").glob("run_*.csv")}
    assert set(ledgers["auto"]) == set(ledgers["1.0"]) and len(ledgers["auto"]) == 4
    for name, data in ledgers["auto"].items():
        assert data != ledgers["1.0"][name], name


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
    plan = parse_plan(plan_text("r_sweep", "r_sweep.r_list = 1"))
    rep = run_experiment(plan)
    paths = rep.write(str(tmp_path))
    root = tmp_path / "r_sweep"
    assert (root / "run_r1.csv").exists()
    assert (root / "summary.csv").exists()
    assert (root / "terminal_kinetic_vs_r.svg").exists()
    assert (root / "notes.csv").exists()
    header = (root / "run_r1.csv").read_text().splitlines()[0]
    assert header == "t,mass,kinetic,interfacial,bulk,visc_diss,damp_diss,mob_diss,work,div_max,phi_max"
    for p in paths:
        assert os.path.commonpath([str(tmp_path), p]) == str(tmp_path)
