"""Config parsing, CLI commands and the file interfaces."""

import hashlib
import html
import os
import re
import runpy
import struct
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chns import checks
from chns.cli import load_state_dump, main
from chns.config import _SCHEMA, build_simulation, parse_config, serialize_config
from chns.diagnostics import CSV_COLUMNS, DiagnosticsRecord
from chns.errors import ChnsError, ConfigError, DomainError, PreconditionError
from chns.experiments import _PLAN_SCHEMA, parse_plan
from chns.materials import EPS_MAX
from chns.svg import _text, line_chart

from conftest import spy


# ---------------------------------------------------------------------------
# config

def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg["grid.n"] == 64
    assert cfg["time.dt"] == 1e-4
    assert cfg["potential.kind"] == "regular"
    assert cfg["mobility.kind"] == "constant"


def test_config_comments_and_values():
    cfg = parse_config("""
    # a comment
    grid.n = 32   # trailing comment
    physics.r = 2.5
    potential.kind = logarithmic
    """)
    assert cfg["grid.n"] == 32
    assert cfg["physics.r"] == 2.5
    assert cfg["potential.kind"] == "logarithmic"


def test_config_syntax_error_names_line():
    with pytest.raises(ConfigError) as err:
        parse_config("grid.n = 32\nnot a valid line\n")
    assert "line 2" in str(err.value)


def test_config_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config("grid.m = 7\n")
    assert "grid.m" in str(err.value)


@pytest.mark.parametrize("parse, text, message", [
    (parse_config, "grid.n = 16\ngrid.n = 32\n", "line 2: key 'grid.n' is already set on line 1"),
    (parse_config, "grid.n = 16\n# grid.n = 8\n\ngrid.n = 16  # the same value\n",
     "line 4: key 'grid.n' is already set on line 1"),
    (parse_plan, "experiment.kind = epsilon_sweep\nepsilon_sweep.eps_list = 0.2, 0.1\n"
     "grid.n = 16\nepsilon_sweep.eps_list = 0.05\n",
     "line 4: key 'epsilon_sweep.eps_list' is already set on line 2"),
    (parse_plan, "experiment.kind = r_sweep\nexperiment.kind = r_sweep\n",
     "line 2: key 'experiment.kind' is already set on line 1"),
], ids=["config", "config-same-value", "plan-key", "plan-kind"])
def test_a_key_set_twice_is_rejected(parse, text, message):
    # the later line used to win silently
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        parse(text)


def test_simulate_refuses_a_config_that_sets_a_key_twice(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("grid.n = 16\ngrid.n = 32\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "line 2: key 'grid.n' is already set on line 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key", ["solver.poisson_tol", "solver.ch_tol", "solver.max_inner_iters", "potential.c0"]
)
def test_retired_solver_key_is_rejected(key):
    # the solver tolerances are constants of the method, and c0 is a
    # constant of the potential, not settings
    text = f"grid.n = 32\n{key} = 1\n"
    with pytest.raises(ConfigError, match=rf"^line 2: unknown key '{key}'$"):
        parse_config(text)
    with pytest.raises(ConfigError, match=rf"^line 3: unknown key '{key}'$"):
        parse_plan("experiment.kind = r_sweep\n" + text)


# (config text, key, message) of every rule `_validate` enforces, in its order
VALIDATION_RULES = [
    ("grid.dim = 4", "grid.dim", "must be 2 or 3, got 4"),
    ("grid.n = 7", "grid.n", "must be >= 8, got 7"),
    ("grid.dim = 3\ngrid.n = 33", "grid.n", "3D runs are supported up to n = 32, got 33"),
    ("time.dt = 0", "time.dt", "must be positive"),
    ("time.t_final = -1", "time.t_final", "must be positive"),
    ("time.t_final = 1.5e-4", "time.t_final",
     "must be a whole number of steps of time.dt = 0.0001, got 1.5 steps"),
    ("physics.nu = 0", "physics.nu", "viscosity must be positive"),
    ("physics.beta = -0.5", "physics.beta", "damping coefficient must be >= 0"),
    ("physics.r = 0.5", "physics.r", "absorption exponent must satisfy r >= 1, got 0.5"),
    ("potential.kind = quartic", "potential.kind",
     "must be one of ('regular', 'logarithmic', 'regularized')"),
    ("potential.theta = 0", "potential.theta", "temperature must be positive"),
    ("potential.theta = 0.3\npotential.theta_c = 0.2", "potential.theta_c",
     "need 0 < theta < theta_c, got theta=0.3, theta_c=0.2"),
    ("potential.epsilon = 0.6", "potential.epsilon", f"must lie in (0, {EPS_MAX}]"),
    ("potential.epsilon = 1e-17", "potential.epsilon",
     "1 - eps must be below 1 in floating point, got 1e-17"),
    ("mobility.kind = degenerate", "mobility.kind", "must be one of ('constant', 'clamped')"),
    ("mobility.n = 0", "mobility.n", "degeneracy exponent must be >= 1"),
    ("mobility.epsilon = 0", "mobility.epsilon", f"must lie in (0, {EPS_MAX}]"),
    ("mobility.epsilon = 1e-320", "mobility.epsilon",
     "1 - eps must be below 1 in floating point, got 1e-320"),
    ("forcing.kind = gusty", "forcing.kind",
     "must be one of ('zero', 'steady', 'time_profile')"),
    ("init.seed = -1", "init.seed", "must be >= 0, got -1"),
    ("init.noise_amp = -0.1", "init.noise_amp", "must be >= 0"),
    ("init.velocity = shear", "init.velocity", "must be one of ('zero', 'vortex')"),
    ("potential.kind = logarithmic\ninit.phi_mean = 0.5\ninit.noise_amp = 0.5",
     "init.noise_amp",
     "|phi_mean| + noise_amp = 1.0 must stay below 1 for the logarithmic potential"),
    ("output.every_k_steps = 0", "output.every_k_steps", "must be >= 1"),
]


def _rule_id(key, message):
    # the rules of one key share its name, which pytest numbers (grid.n0,
    # grid.n1); the whole-steps rule on time.t_final and the joint rule on
    # each epsilon have names of their own
    if message.startswith("must be a whole number of steps"):
        return f"{key}-steps"
    return f"{key}-joint" if message.startswith("1 - eps") else key


@pytest.mark.parametrize("text, key, message", VALIDATION_RULES,
                         ids=[_rule_id(key, message) for _, key, message in VALIDATION_RULES])
def test_every_validation_rule_names_its_key(text, key, message):
    expected = "^" + re.escape(f"key {key!r}: {message}") + "$"
    with pytest.raises(ConfigError, match=expected):
        parse_config(text)
    updates = dict(line.split(" = ") for line in text.splitlines())
    with pytest.raises(ConfigError, match=expected):
        parse_config("").with_updates(**updates)


def test_plan_validation_rule_names_its_key():
    # a negative seed would reach numpy's default_rng in the perturbation studies
    with pytest.raises(ConfigError, match=r"^key 'experiment\.seed': must be >= 0, got -3$"):
        parse_plan("experiment.kind = continuous_dependence\nexperiment.seed = -3\n")


@pytest.mark.parametrize("kind, line", [
    ("r_sweep", "epsilon_sweep.eps_list = 0.2, 0.1, 0.05"),
    ("beta_nu_probe", "r_sweep.r_list = 1, 3"),
    ("epsilon_sweep", "beta_nu.delta = 0.1"),
    ("continuous_dependence", "refinement.amplitude = 1e-3"),
    ("refinement", "continuous_dependence.delta_list = 1e-2, 5e-3, 2.5e-3"),
], ids=["r-sweep", "beta-nu-probe", "epsilon-sweep", "continuous-dependence", "refinement"])
def test_plan_validation_rule_refuses_another_studys_keys(kind, line):
    # the study would ignore the key, so the plan would not run what it says;
    # experiment.* keys belong to every plan
    key = re.escape(line.partition(" =")[0])
    with pytest.raises(ConfigError, match=rf"^key '{key}': is not read by experiment\.kind = "
                                          rf"{kind}$"):
        parse_plan(f"experiment.kind = {kind}\nexperiment.seed = 7\n{line}\n")


def test_with_updates_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"^unknown config key 'grid\.m'$"):
        parse_config("").with_updates(grid__m=7)


@pytest.mark.parametrize("key", [
    k for schema in (_SCHEMA, _PLAN_SCHEMA) for k, (tag, _) in schema.items()
    if tag in ("float", "float_list")
])
def test_non_finite_value_names_key(key):
    # each range check is written `x <= 0`, which nan passes
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=rf"key '{key}': must be finite, got {raw}$"):
            parse_plan(f"experiment.kind = r_sweep\n{key} = {raw}\n")
        if key in _SCHEMA:
            with pytest.raises(ConfigError, match=rf"key '{key}': must be finite, got {raw}$"):
                parse_config("").with_updates(**{key: float(raw)})


def test_with_updates_accepts_numpy_scalars():
    cfg = parse_config("")
    as_numpy = cfg.with_updates(physics__r=np.float64(2.0), grid__n=np.int64(32))
    assert as_numpy == cfg.with_updates(physics__r=2.0, grid__n=32)
    assert type(as_numpy["grid.n"]) is int and type(as_numpy["physics.r"]) is float


def test_serialize_roundtrip_idempotent():
    text = "grid.n = 32\nphysics.nu = 0.25\npotential.kind = logarithmic\n"
    cfg = parse_config(text)
    canon = serialize_config(cfg)
    again = serialize_config(parse_config(canon))
    assert canon == again
    assert parse_config(canon).values == cfg.values


_EPS = st.floats(1e-4, EPS_MAX)
# a valid value for every key (a key added to the schema without one fails
# the test below); the ranges of theta and theta_c and of phi_mean and
# noise_amp keep every combination valid.  time.t_final is drawn as a step
# count, which `_whole_steps` multiplies by the drawn time.dt
_VALUE = {
    "grid.dim": st.sampled_from([2, 3]),
    "grid.n": st.integers(8, 32),
    "time.dt": st.floats(1e-8, 1.0),
    "time.t_final": st.integers(1, 10**5),
    "physics.nu": st.floats(1e-6, 1e3),
    "physics.beta": st.floats(0.0, 1e3),
    "physics.r": st.floats(1.0, 10.0),
    "potential.kind": st.sampled_from(["regular", "logarithmic", "regularized"]),
    "potential.theta": st.floats(1e-3, 0.2),
    "potential.theta_c": st.floats(0.25, 2.0),
    "potential.epsilon": _EPS,
    "mobility.kind": st.sampled_from(["constant", "clamped"]),
    "mobility.n": st.integers(1, 4),
    "mobility.epsilon": _EPS,
    "forcing.kind": st.sampled_from(["zero", "steady", "time_profile"]),
    "forcing.amplitude": st.floats(-1e300, 1e300),
    "forcing.omega": st.floats(-1e3, 1e3),
    "init.phi_mean": st.floats(-0.5, 0.5),
    "init.noise_amp": st.floats(0.0, 0.45),
    "init.seed": st.integers(0, 2**63),
    "init.velocity": st.sampled_from(["zero", "vortex"]),
    "init.velocity_amp": st.floats(-1e3, 1e3),
    "output.dir": st.text("abcXYZ019_-./", min_size=1, max_size=12),
    "output.every_k_steps": st.integers(1, 10**6),
}


_TIME = {"time.dt", "time.t_final"}


def _whole_steps(updates):
    # a run ends at t_final only after a whole number of steps of dt
    if "time.t_final" in updates:
        updates["time.t_final"] *= updates["time.dt"]
    return updates


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(sorted(_SCHEMA))).flatmap(
    # the default n = 64 is too large in 3D, so a drawn dim brings an n;
    # a drawn dt or t_final brings the other
    lambda keys: st.fixed_dictionaries({k: _VALUE[k] for k in sorted(
        keys | ({"grid.n"} if "grid.dim" in keys else set()) | (_TIME if keys & _TIME else set())
    )}).map(_whole_steps)
))
def test_serialize_parse_fixed_point(updates):
    cfg = parse_config("".join(f"{k} = {v}\n" for k, v in updates.items()))
    canon = serialize_config(cfg)
    again = parse_config(canon)
    assert again == cfg
    assert all(type(again[k]) is type(cfg[k]) for k in _SCHEMA)
    assert serialize_config(again) == canon


def test_build_simulation_builds_configured_run():
    cfg = parse_config("grid.n = 16\nmobility.kind = clamped\nmobility.epsilon = 0.1\n")
    sim = build_simulation(cfg)
    assert sim.grid.n == 16
    assert sim.mob.kind == "clamped"
    sim.step()
    assert checks.ledger_mass_drift(sim.ledger) <= 1e-12


def test_build_simulation_given_fields():
    cfg = parse_config("grid.n = 16\ninit.velocity = vortex\n")
    base = build_simulation(cfg)
    phi = np.random.default_rng(7).uniform(-0.5, 0.5, base.grid.cell_shape)
    u = base.state.u
    sim = build_simulation(cfg, phi=phi, u=u)
    st = sim.state
    assert st.phi.data.tobytes() == phi.tobytes()
    assert not st.pi.data.any()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(st.u.components, u.components))
    # neither the noise draw nor the seed reaches a run given both fields
    other = build_simulation(cfg.with_updates(init__seed=99), phi=phi, u=u).state
    def dump(s):
        return [a.tobytes() for a in (s.phi.data, *s.u.components)]

    assert dump(other) == dump(st)
    with pytest.raises(TypeError):
        build_simulation(cfg, pot=base.pot)


def test_logarithmic_run_given_phi_at_pure_phase_is_rejected():
    # the config's noise bound cannot see a given phi; the t = 0 record's
    # bulk energy evaluates the logarithmic well and rejects |phi| = 1
    cfg = parse_config("grid.n = 16\npotential.kind = logarithmic\n")
    phi = np.zeros((16, 16))
    phi[3, 5] = -1.0
    with pytest.raises(DomainError, match="within 1e-14 of \\+-1 at 1 sample"):
        build_simulation(cfg, phi=phi)


# ---------------------------------------------------------------------------
# CLI

def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FAST_CFG = """
grid.n = 16
time.dt = 1e-4
time.t_final = 2e-3
output.every_k_steps = 4
"""


def read_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    return [DiagnosticsRecord(*map(float, row.split(","))) for row in lines[1:]]


def test_simulate_writes_csv_and_dump(tmp_path):
    cfg = write_cfg(tmp_path, FAST_CFG)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "diagnostics.csv"))
    assert rows[0].t == 0.0
    assert rows[-1].t == pytest.approx(2e-3)
    # every 4th step plus initial and final
    assert len(rows) == 1 + 20 // 4
    dim, n, arrays = load_state_dump(os.path.join(out, "final_state.chns"))
    assert (dim, n) == (2, 16)
    sim = build_simulation(parse_config(FAST_CFG))
    sim.run()
    assert np.array_equal(arrays[0], sim.state.phi.data)
    assert np.array_equal(arrays[1], sim.state.u.components[0])
    assert np.array_equal(arrays[3], sim.state.pi.data)


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: (data[:12], "bytes, found 12"),
        lambda data: (data[:-1], f"bytes, found {len(data) - 1}"),
        lambda data: (data + bytes(8), f"bytes, found {len(data) + 8}"),
        # a header for a grid of zero cells, with the empty body it declares
        lambda data: (data[:5] + struct.pack("<II", 2, 0), "declares n=0; expected n >= 8"),
        lambda data: (
            data[:5] + struct.pack("<II", 4, 16) + data[13:], "declares dim=4; expected 2 or 3"
        ),
    ],
    ids=["short-header", "short-body", "trailing-bytes", "empty-grid", "bad-dim"],
)
def test_resized_dump_is_rejected(tmp_path, edit):
    cfg = write_cfg(tmp_path, FAST_CFG)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    path = os.path.join(out, "final_state.chns")
    data, message = edit(Path(path).read_bytes())
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(ChnsError, match=rf"final_state\.chns.* {message}$"):
        load_state_dump(path)


def test_bad_magic_dump_is_rejected(tmp_path):
    cfg = write_cfg(tmp_path, FAST_CFG)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    path = os.path.join(out, "final_state.chns")
    data = Path(path).read_bytes()
    with open(path, "wb") as fh:
        fh.write(b"CHNS0" + data[5:])
    with pytest.raises(ChnsError, match=r"^bad magic b'CHNS0' in .*final_state\.chns$"):
        load_state_dump(path)


def test_simulate_zero_initial_data(tmp_path):
    cfg = write_cfg(tmp_path, """
    grid.n = 16
    time.dt = 1e-4
    time.t_final = 1e-3
    init.phi_mean = 0.0
    init.noise_amp = 0.0
    output.every_k_steps = 1
    """)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "diagnostics.csv"))
    for row in rows:
        assert row.mass == 0.0
        assert row.kinetic == 0.0
        assert row.interfacial == 0.0
        assert row.visc_diss == 0.0 and row.damp_diss == 0.0 and row.mob_diss == 0.0
        assert row.work == 0.0 and row.div_max == 0.0 and row.phi_max == 0.0
        assert row.bulk == pytest.approx(1.0, abs=1e-12)  # F(0) |Omega|


def test_simulate_rerun_reproduces_csv(tmp_path):
    cfg = write_cfg(tmp_path, FAST_CFG)
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        outs.append(Path(out, "diagnostics.csv").read_text())
    assert outs[0] == outs[1]


def test_simulate_cfl_failure_leaves_parseable_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
    grid.n = 16
    time.dt = 1.0
    time.t_final = 2.0
    init.velocity = vortex
    init.velocity_amp = 0.5
    """)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "CFL" in err
    rows = read_rows(os.path.join(out, "diagnostics.csv"))  # no torn rows
    assert len(rows) == 1


@pytest.mark.filterwarnings("error")
def test_simulate_overflowing_forcing_fails_the_step(tmp_path, capsys):
    # a force of 1e200 overflows the solver norms: the step has to fail
    # rather than report zero kinetic energy and work
    cfg = write_cfg(tmp_path, """
    grid.n = 16
    time.t_final = 3e-4
    forcing.kind = steady
    forcing.amplitude = 1e200
    """)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 1
    assert "simulate: step failed" in capsys.readouterr().err


@pytest.mark.parametrize("t_final, steps", [("4e-5", "0.4"), ("1.5e-4", "1.5")])
def test_simulate_refuses_a_t_final_between_steps(tmp_path, capsys, t_final, steps):
    # a run takes round(t_final / dt) steps: 4e-5 would take none and 1.5e-4
    # one (round(1.4999999999999998) is 1), both ending short of t_final
    # with exit 0.  Now no step is taken and the error names the key
    cfg = write_cfg(tmp_path, f"grid.n = 16\ntime.dt = 1e-4\ntime.t_final = {t_final}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"simulate: key 'time.t_final': must be a whole number of steps of "
        f"time.dt = 0.0001, got {steps} steps\n")
    assert not out.exists()


def test_t_final_within_roundoff_of_whole_steps_is_accepted():
    # t_final / dt of 20.000000000000004 and 2.9999999999999996: the rule
    # of run_refinement, |round(t_final / dt) dt - t_final| <= 1e-9 t_final
    for text, steps in [("time.t_final = 0.002\n", 20),
                        ("time.dt = 0.1\ntime.t_final = 0.3\n", 3)]:
        assert build_simulation(parse_config("grid.n = 8\n" + text)).params.n_steps == steps


def test_simulate_overflowing_record_fails_the_step(tmp_path, capsys):
    # the step itself stays finite, but ||u||_{L^4}^4 of u ~ 1e146 overflows:
    # the record's damp_diss must fail the step, not reach the CSV as inf
    cfg = write_cfg(tmp_path, """
    grid.n = 16
    time.dt = 1e-4
    time.t_final = 1e-4
    forcing.kind = steady
    forcing.amplitude = 1e150
    """)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 1
    assert "step failed: diagnostics column damp_diss is inf" in capsys.readouterr().err
    assert len(read_rows(os.path.join(out, "diagnostics.csv"))) == 1


def test_verify_default_passes(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, "grid.n = 16\ntime.t_final = 2e-3\n")
    assert main(["verify", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert "FAIL" not in first
    assert main(["verify", "--config", cfg]) == 0
    second = capsys.readouterr().out
    assert first == second  # deterministic table
    # `python -m chns.cli verify` with no --config checks the default config
    monkeypatch.setattr(sys, "argv", ["chns", "verify"])
    monkeypatch.delitem(sys.modules, "chns.cli")  # run_module warns if it is loaded
    with pytest.raises(SystemExit, match="^0$"):
        runpy.run_module("chns.cli", run_name="__main__")
    assert "FAIL" not in capsys.readouterr().out


# the config of the `verify` tree of `scripts/ledger_trees.py`
VERIFY_TREE_CFG = """
grid.n = 32
time.dt = 1e-4
time.t_final = 0.003
potential.kind = logarithmic
mobility.kind = clamped
mobility.epsilon = 0.2
init.noise_amp = 0.5
init.velocity = vortex
"""


@pytest.mark.parametrize("text, shown", [
    (VERIFY_TREE_CFG, True),
    ("grid.n = 16\ntime.t_final = 2e-3\n", False),
], ids=["logarithmic-clamped", "regular-constant"])
def test_verify_prints_degenerate_residual_where_it_applies(tmp_path, capsys, text, shown):
    assert main(["verify", "--config", write_cfg(tmp_path, text)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if "degenerate energy residual (informative)" in line]
    assert len(rows) == int(shown)
    if shown:
        assert re.fullmatch(r"PASS  degenerate energy residual \(informative\) +"
                            r"-?\d\.\d{3}e[-+]\d\d at dt=0\.0001", rows[0])


def test_verify_calls_every_catalogue_function(monkeypatch):
    # a catalogued identity cannot drop out of the `chns verify` table unnoticed
    names = [n for n in checks.__all__ if n not in ("CheckResult", "run_verify", "format_table")]
    calls = []
    for name in names:
        spy(monkeypatch, calls, name, name, checks)
    assert all(row.passed for row in checks.run_verify(parse_config("grid.n = 16\n")))
    assert [name for name in names if name not in calls] == []


def test_verify_huge_dt_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
    grid.n = 16
    time.dt = 1.0
    time.t_final = 2.0
    init.velocity = vortex
    """)
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "CFL" in out


def test_experiment_command_r_sweep(tmp_path):
    plan = tmp_path / "sweep.plan"
    plan.write_text("""
    experiment.kind = r_sweep
    r_sweep.r_list = 1, 2, 3, 4
    grid.n = 16
    time.dt = 2e-4
    time.t_final = 1e-3
    init.velocity = vortex
    """)
    out = str(tmp_path / "runs")
    assert main(["experiment", "--plan", str(plan), "--out", out]) == 0
    root = os.path.join(out, "r_sweep")
    for r in (1, 2, 3, 4):
        assert os.path.exists(os.path.join(root, f"run_r{r}.csv"))
    assert os.path.exists(os.path.join(root, "summary.csv"))


def test_experiment_command_epsilon_sweep(tmp_path):
    plan = tmp_path / "eps.plan"
    plan.write_text("""
    experiment.kind = epsilon_sweep
    epsilon_sweep.eps_list = 0.2, 0.1, 0.05
    grid.n = 16
    time.dt = 2e-4
    time.t_final = 1e-3
    """)
    out = str(tmp_path / "runs")
    assert main(["experiment", "--plan", str(plan), "--out", out]) == 0
    assert os.path.exists(
        os.path.join(out, "epsilon_sweep", "terminal_overshoot_vs_eps.svg")
    )


def test_experiment_empty_list_fails_before_running(tmp_path, capsys):
    plan = tmp_path / "bad.plan"
    plan.write_text("experiment.kind = r_sweep\n")
    out = str(tmp_path / "runs")
    assert main(["experiment", "--plan", str(plan), "--out", out]) == 1
    assert not os.path.exists(os.path.join(out, "r_sweep"))


def test_plot_deterministic_and_monotone(tmp_path):
    cfg = write_cfg(tmp_path, FAST_CFG.replace("every_k_steps = 4", "every_k_steps = 1"))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    csv_path = os.path.join(out, "diagnostics.csv")
    digests = []
    for sub in ("p1", "p2"):
        pdir = str(tmp_path / sub)
        assert main(["plot", "--csv", csv_path, "--columns", "bulk,interfacial", "--out", pdir]) == 0
        path = os.path.join(pdir, "diagnostics_bulk.svg")
        digests.append(hashlib.sha256(Path(path).read_bytes()).hexdigest())
        assert os.path.exists(os.path.join(pdir, "diagnostics_interfacial.svg"))
    assert digests[0] == digests[1]  # byte-identical SVG
    # the plotted decay run has non-increasing total energy
    rows = read_rows(csv_path)
    energies = [r.energy for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_plot_errors(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("t,mass\n")
    assert main(["plot", "--csv", str(empty), "--columns", "mass", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "empty_mass.svg").exists()
    good = tmp_path / "good.csv"
    good.write_text("t,mass\n0.0,1.0\n0.1,1.5\n")
    assert main(["plot", "--csv", str(good), "--columns", "nope", "--out", str(tmp_path)]) == 1
    assert main(["plot", "--csv", str(good), "--columns", "mass", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "good_mass.svg").exists()


@pytest.mark.parametrize("series", [[], [([0.0, 1.0], [1.0], "y")]], ids=["none", "unequal"])
def test_line_chart_needs_non_empty_equal_length_series(series):
    with pytest.raises(PreconditionError, match="non-empty, equal-length series"):
        line_chart("title", "x", "y", series)


@pytest.mark.parametrize("series", [
    [([0.0, 1.0, 2.0], [1.0, float("nan"), 3.0], "y")],
    [([0.0, 1.0, 2.0], [1.0, 2.0, float("inf")], "y")],
    [([0.0, float("-inf")], [1.0, 2.0], "y")],
    [([0.0, 1.0], [1.0, 2.0], "a"), ([0.0, 1.0], [float("nan")] * 2, "b")],
    [([-1e308, 1e308], [1.0, 2.0], "y")],
    [([0.0, 1.0], [1.79e308, 1.79e308], "y")],
], ids=["nan", "inf", "x-inf", "second-series", "x-span", "padded-y-span"])
def test_line_chart_needs_finite_points_and_spans(series):
    # a non-finite point, or a span that overflows (which maps every finite
    # point to nan), would write coordinates no viewer can draw
    with pytest.raises(PreconditionError, match="finite points and a finite x and y span"):
        line_chart("title", "x", "y", series)


def test_line_chart_escapes_its_text_as_xml():
    text = line_chart("a&b <c>", "x<1", "y>2 & z", [([0.0, 1.0], [1.0, 2.0], "u&v"),
                                                    ([0.0, 1.0], [2.0, 1.0], "<w>")])
    root = ET.fromstring(text)
    shown = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert {"a&b <c>", "x<1", "y>2 & z", "u&v", "<w>"} <= set(shown)
    # the escape is html.escape(s, quote=False), written out so that no run loads html
    s = "&amp; <a href=\"q\">'r'</a> >"
    assert _text(s) == html.escape(s, quote=False)


def test_plot_writes_well_formed_svg_for_a_column_named_with_markup(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,a&b\n0,1\n1,2\n")
    assert main(["plot", "--csv", str(path), "--columns", "a&b", "--out", str(tmp_path)]) == 0
    root = ET.parse(tmp_path / "d_a&b.svg").getroot()
    shown = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b vs t" in shown and "a&b" in shown


@pytest.mark.parametrize("text, columns, message", [
    ("", "mass", "is empty"),
    ("t,mass\n0.0,1.0\n", " , ", "no columns requested"),
    ("time,mass\n0.0,1.0\n", "mass", "CSV lacks a 't' column"),
], ids=["empty-file", "no-columns", "no-t"])
def test_plot_rejects_unusable_input(tmp_path, capsys, text, columns, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main(["plot", "--csv", str(path), "--columns", columns, "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("text, message", [
    ("t,mass\n0.0,1.0\nabc,2.0\n", "row 3 column t: not a number: 'abc'"),
    ("t,mass\n0.0,1.0\n2.0\n", "row 3 column mass: missing"),
    ("t,mass\n0,1\n1,nan\n2,3\n", "row 3 column mass: not finite: 'nan'"),
    ("t,mass\n0,1\n1,2\n2, -Infinity\n", "row 4 column mass: not finite: ' -Infinity'"),
    ("t,mass\ninf,1\n1,2\n", "row 2 column t: not finite: 'inf'"),
], ids=["non-numeric-cell", "short-row", "nan-cell", "infinite-cell", "infinite-t"])
def test_plot_names_a_malformed_cell(tmp_path, capsys, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main(["plot", "--csv", str(path), "--columns", "mass", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"plot: {path} {message}\n" and "Traceback" not in err
    assert not list(tmp_path.glob("*.svg"))


def test_plot_refuses_the_first_non_finite_cell_of_any_column(tmp_path, capsys):
    # a nan cell used to reach the chart as points="... 425,nan ...", and an
    # inf one flattened the finite points; the command exited 0
    path = tmp_path / "d.csv"
    path.write_text("t,x,y\n0,1,1\n1,nan,2\n2,3,inf\n")
    assert main(["plot", "--csv", str(path), "--columns", "x,y", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"plot: {path} row 3 column x: not finite: 'nan'\n"
    assert not list(tmp_path.glob("*.svg"))


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"simulate: [Errno 2] No such file or directory: '{missing}'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("eps", ["1e-17", "1e-320"])
@pytest.mark.parametrize("key", ["potential.epsilon", "mobility.epsilon"])
def test_simulate_refuses_an_eps_whose_joint_rounds_to_one(tmp_path, capsys, key, eps):
    # with 1 - eps == 1.0 the regularized potential's joint constants divided
    # by zero in a traceback, and the clamped mobility's lower bound m1 was 0
    text = FAST_CFG + f"potential.kind = regularized\nmobility.kind = clamped\n{key} = {eps}\n"
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    message = f"key {key!r}: 1 - eps must be below 1 in floating point, got {eps}"
    assert capsys.readouterr().err == f"simulate: {message}\n"
    assert not out.exists()


def test_simulate_runs_at_the_least_eps_whose_joint_is_below_one(tmp_path):
    eps = 2.0**-53  # 1 - eps is the float just below 1
    text = FAST_CFG + ("potential.kind = regularized\nmobility.kind = clamped\n"
                       f"potential.epsilon = {eps!r}\nmobility.epsilon = {eps!r}\n")
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", write_cfg(tmp_path, text), "--out", out]) == 0
    assert np.isfinite([r.energy for r in read_rows(os.path.join(out, "diagnostics.csv"))]).all()


def test_simulate_names_a_config_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"grid.n = 16\n# caf\xe9\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"simulate: {path}: not UTF-8 at byte offset 17\n"
    assert not out.exists()


def test_experiment_names_a_plan_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "sweep.plan"
    path.write_bytes(b"experiment.kind = r_sweep\n# caf\xe9\nr_sweep.r_list = 1, 2\n")
    out = tmp_path / "out"
    assert main(["experiment", "--plan", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"experiment: {path}: not UTF-8 at byte offset 31\n"
    assert not out.exists()


def test_plot_names_a_csv_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_bytes(b"t,x\n0,1\n1,2\n# caf\xe9\n")
    assert main(["plot", "--csv", str(path), "--columns", "x", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"plot: {path}: not UTF-8 at byte offset 17\n"
    assert not list(tmp_path.glob("*.svg"))


def test_commands_write_only_under_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, FAST_CFG)
    out = str(tmp_path / "only_here")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    entries = {p.name for p in tmp_path.iterdir()}
    assert entries == {"run.cfg", "only_here"}
    # without --out, an experiment writes under its plan's output.dir
    plan = tmp_path / "sweep.plan"
    plan.write_text("experiment.kind = r_sweep\nr_sweep.r_list = 1, 2\ngrid.n = 16\n"
                    "time.dt = 2e-4\ntime.t_final = 4e-4\noutput.dir = plan_out\n")
    assert main(["experiment", "--plan", str(plan)]) == 0
    assert {p.name for p in tmp_path.iterdir()} == entries | {"sweep.plan", "plan_out"}
    assert (tmp_path / "plan_out" / "r_sweep" / "summary.csv").exists()
