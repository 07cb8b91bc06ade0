"""Config parsing, CLI commands and the file interfaces."""

import hashlib
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chns.cli import load_state_dump, main
from chns.config import _SCHEMA, build_simulation, parse_config, serialize_config
from chns.diagnostics import CSV_COLUMNS, DiagnosticsRecord
from chns.errors import ChnsError, ConfigError, DomainError
from chns.experiments import _PLAN_SCHEMA, parse_plan
from chns.materials import EPS_MAX


# ---------------------------------------------------------------------------
# config

def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg["grid.n"] == 64
    assert cfg["time.dt"] == 1e-4
    assert cfg["potential.kind"] == "regular"
    assert cfg["mobility.kind"] == "constant"
    assert cfg["potential.c0"] == "auto"


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


@pytest.mark.parametrize(
    "key", ["solver.poisson_tol", "solver.ch_tol", "solver.max_inner_iters"]
)
def test_retired_solver_key_is_rejected(key):
    # the solver tolerances are constants of the method, not settings
    text = f"grid.n = 32\n{key} = 1\n"
    with pytest.raises(ConfigError, match=rf"^line 2: unknown key '{key}'$"):
        parse_config(text)
    with pytest.raises(ConfigError, match=rf"^line 3: unknown key '{key}'$"):
        parse_plan("experiment.kind = r_sweep\n" + text)


def test_config_constraint_errors_name_key():
    with pytest.raises(ConfigError) as err:
        parse_config("physics.r = 0.5\n")
    assert "physics.r" in str(err.value) and "r >= 1" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("potential.theta = 0.3\npotential.theta_c = 0.2\n")
    assert "theta" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("grid.dim = 3\ngrid.n = 64\n")
    with pytest.raises(ConfigError):
        parse_config("potential.kind = logarithmic\ninit.phi_mean = 0.99\n")
    with pytest.raises(ConfigError):
        parse_config("physics.nu = 0\n")
    with pytest.raises(ConfigError, match="mobility.kind"):
        parse_config("mobility.kind = degenerate\n")


# (config text, key, message) of every rule `_validate` enforces, in its order
VALIDATION_RULES = [
    ("grid.dim = 4", "grid.dim", "must be 2 or 3, got 4"),
    ("grid.n = 7", "grid.n", "must be >= 8, got 7"),
    ("grid.dim = 3\ngrid.n = 33", "grid.n", "3D runs are supported up to n = 32, got 33"),
    ("time.dt = 0", "time.dt", "must be positive"),
    ("time.t_final = -1", "time.t_final", "must be positive"),
    ("physics.nu = 0", "physics.nu", "viscosity must be positive"),
    ("physics.beta = -0.5", "physics.beta", "damping coefficient must be >= 0"),
    ("physics.r = 0.5", "physics.r", "absorption exponent must satisfy r >= 1, got 0.5"),
    ("potential.kind = quartic", "potential.kind",
     "must be one of ('regular', 'logarithmic', 'regularized')"),
    ("potential.theta = 0", "potential.theta", "temperature must be positive"),
    ("potential.theta = 0.3\npotential.theta_c = 0.2", "potential.theta_c",
     "need 0 < theta < theta_c, got theta=0.3, theta_c=0.2"),
    ("potential.epsilon = 0.6", "potential.epsilon", f"must lie in (0, {EPS_MAX}]"),
    ("potential.c0 = -1", "potential.c0", "must be 'auto' or positive"),
    ("mobility.kind = degenerate", "mobility.kind", "must be one of ('constant', 'clamped')"),
    ("mobility.n = 0", "mobility.n", "degeneracy exponent must be >= 1"),
    ("mobility.epsilon = 0", "mobility.epsilon", f"must lie in (0, {EPS_MAX}]"),
    ("forcing.kind = gusty", "forcing.kind",
     "must be one of ('zero', 'steady', 'time_profile')"),
    ("init.noise_amp = -0.1", "init.noise_amp", "must be >= 0"),
    ("init.velocity = shear", "init.velocity", "must be one of ('zero', 'vortex')"),
    ("potential.kind = logarithmic\ninit.phi_mean = 0.5\ninit.noise_amp = 0.5",
     "init.noise_amp",
     "|phi_mean| + noise_amp = 1.0 must stay below 1 for the logarithmic potential"),
    ("output.every_k_steps = 0", "output.every_k_steps", "must be >= 1"),
]


@pytest.mark.parametrize("text, key, message", VALIDATION_RULES,
                         ids=[key for _, key, _ in VALIDATION_RULES])
def test_every_validation_rule_names_its_key(text, key, message):
    expected = "^" + re.escape(f"key {key!r}: {message}") + "$"
    with pytest.raises(ConfigError, match=expected):
        parse_config(text)
    updates = dict(line.split(" = ") for line in text.splitlines())
    with pytest.raises(ConfigError, match=expected):
        parse_config("").with_updates(**updates)


def test_with_updates_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"^unknown config key 'grid\.m'$"):
        parse_config("").with_updates(grid__m=7)


@pytest.mark.parametrize("key", [
    k for schema in (_SCHEMA, _PLAN_SCHEMA) for k, (tag, _) in schema.items()
    if tag in ("float", "auto", "float_list")
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
# noise_amp keep every combination valid
_VALUE = {
    "grid.dim": st.sampled_from([2, 3]),
    "grid.n": st.integers(8, 32),
    "time.dt": st.floats(1e-8, 1.0),
    "time.t_final": st.floats(1e-8, 1e3),
    "physics.nu": st.floats(1e-6, 1e3),
    "physics.beta": st.floats(0.0, 1e3),
    "physics.r": st.floats(1.0, 10.0),
    "potential.kind": st.sampled_from(["regular", "logarithmic", "regularized"]),
    "potential.theta": st.floats(1e-3, 0.2),
    "potential.theta_c": st.floats(0.25, 2.0),
    "potential.epsilon": _EPS,
    "potential.c0": st.one_of(st.just("auto"), st.floats(1e-3, 1e3)),
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


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(sorted(_SCHEMA))).flatmap(
    # the default n = 64 is too large in 3D, so a drawn dim brings an n
    lambda keys: st.fixed_dictionaries(
        {k: _VALUE[k] for k in sorted(keys | ({"grid.n"} if "grid.dim" in keys else set()))}
    )
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
    rec = sim.step()
    assert abs(rec.mass - sim.ledger.records[0].mass) <= 1e-12


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
    return [DiagnosticsRecord.from_csv_row(row) for row in lines[1:]]


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


def test_verify_default_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grid.n = 16\ntime.t_final = 2e-3\n")
    assert main(["verify", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert "FAIL" not in first
    assert main(["verify", "--config", cfg]) == 0
    second = capsys.readouterr().out
    assert first == second  # deterministic table


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
    cfg = write_cfg(tmp_path, FAST_CFG + "output.every_k_steps = 1\n")
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
], ids=["non-numeric-cell", "short-row"])
def test_plot_names_a_malformed_cell(tmp_path, capsys, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main(["plot", "--csv", str(path), "--columns", "mass", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"plot: {path} {message}\n" and "Traceback" not in err
    assert not list(tmp_path.glob("*.svg"))


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"simulate: [Errno 2] No such file or directory: '{missing}'")
    assert not (tmp_path / "out").exists()


def test_commands_write_only_under_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, FAST_CFG)
    out = str(tmp_path / "only_here")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    entries = {p.name for p in tmp_path.iterdir()}
    assert entries == {"run.cfg", "only_here"}
