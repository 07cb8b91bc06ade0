"""Flat `section.key = value` run configuration.

The format is deliberately diff-friendly: one dotted key per line, `#`
comments, no nesting.  Unknown keys are rejected; every constraint error
names the offending key.  `serialize_config(parse_config(text))` is a
fixed point after one normalization pass.  Solver tolerances are not keys:
they are constants of the method (`solver.CH_TOL`, `solver.MAX_INNER_ITERS`,
`poisson.RESIDUAL_TOL`).
"""

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .grid import Grid
from .materials import (
    EPS_MAX,
    POTENTIAL_KINDS,
    constant_mobility,
    degenerate_mobility,
    logarithmic_potential,
    regular_potential,
    regularize_mobility,
    regularize_potential,
)
from .solver import FORCING_KINDS, VELOCITY_KINDS, ForcingSpec, SolverParams
from .solver import Simulation, initial_state

__all__ = ["RunConfig", "parse_config", "serialize_config", "build_simulation"]

_MOBILITY_KINDS = ("constant", "clamped")  # the mobilities `build_materials` builds

# key -> (type tag, default); the type tags are those `_coerce` reads
_SCHEMA = {
    "grid.dim": ("int", 2),
    "grid.n": ("int", 64),
    "time.dt": ("float", 1e-4),
    "time.t_final": ("float", 0.1),
    "physics.nu": ("float", 1.0),
    "physics.beta": ("float", 1.0),
    "physics.r": ("float", 3.0),
    "potential.kind": ("str", "regular"),
    "potential.theta": ("float", 0.15),
    "potential.theta_c": ("float", 0.3),
    "potential.epsilon": ("float", 0.1),
    "potential.c0": ("auto", "auto"),
    "mobility.kind": ("str", "constant"),
    "mobility.n": ("int", 1),
    "mobility.epsilon": ("float", 0.1),
    "forcing.kind": ("str", "zero"),
    "forcing.amplitude": ("float", 0.0),
    "forcing.omega": ("float", 6.283185307179586),
    "init.phi_mean": ("float", 0.0),
    "init.noise_amp": ("float", 0.05),
    "init.seed": ("int", 1234),
    "init.velocity": ("str", "zero"),
    "init.velocity_amp": ("float", 0.1),
    "output.dir": ("str", "out"),
    "output.every_k_steps": ("int", 10),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated key/value store for one simulation."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def with_updates(self, **dotted):
        """New config with `key__sub` style or dotted-key overrides applied."""
        vals = dict(self.values)
        for key, val in dotted.items():
            key = key.replace("__", ".")
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            vals[key] = _coerce(key, str(val), _SCHEMA[key][0])
        cfg = RunConfig(vals)
        _validate(cfg)
        return cfg


def _coerce(key, raw, tag):
    """``raw`` as the value of type ``tag``: int, float, str, auto (float or
    "auto"), or int_list / float_list (comma- or space-separated).  Floats
    must be finite: the range checks are written ``x <= 0``, which nan
    passes."""
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "int_list":
            return [int(s) for s in raw.replace(",", " ").split()]
        if tag == "float_list":
            value = [float(s) for s in raw.replace(",", " ").split()]
        elif tag == "float" or (tag == "auto" and raw != "auto"):
            value = float(raw)
        else:
            return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse value {raw!r}") from exc
    if not all(map(math.isfinite, value if tag == "float_list" else [value])):
        raise ConfigError(f"key {key!r}: must be finite, got {raw}")
    return value


def parse_extended(text, extra_schema=None):
    """Parse config text; `extra_schema` adds keys (used by plan files).

    Returns (RunConfig, extras dict with the extra-schema values).
    """
    schema = dict(_SCHEMA)
    extra_schema = extra_schema or {}
    schema.update(extra_schema)
    values = {k: v for k, (_, v) in _SCHEMA.items()}
    extras = {k: v for k, (_, v) in extra_schema.items()}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            value = _coerce(key, raw, schema[key][0])
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        (extras if key in extra_schema else values)[key] = value

    cfg = RunConfig(values)
    _validate(cfg)
    return cfg, extras


def parse_config(text):
    """Parse and validate a run configuration; empty text gives defaults."""
    cfg, _ = parse_extended(text)
    return cfg


def serialize_config(cfg):
    """Canonical text form: sorted keys, one per line."""
    lines = []
    for key in sorted(cfg.values):
        val = cfg.values[key]
        lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _fail(key, message):
    raise ConfigError(f"key {key!r}: {message}")


def _validate(cfg):
    v = cfg.values
    if v["grid.dim"] not in (2, 3):
        _fail("grid.dim", f"must be 2 or 3, got {v['grid.dim']}")
    if v["grid.n"] < 8:
        _fail("grid.n", f"must be >= 8, got {v['grid.n']}")
    if v["grid.dim"] == 3 and v["grid.n"] > 32:
        _fail("grid.n", f"3D runs are supported up to n = 32, got {v['grid.n']}")
    if v["time.dt"] <= 0:
        _fail("time.dt", "must be positive")
    if v["time.t_final"] <= 0:
        _fail("time.t_final", "must be positive")
    if v["physics.nu"] <= 0:
        _fail("physics.nu", "viscosity must be positive")
    if v["physics.beta"] < 0:
        _fail("physics.beta", "damping coefficient must be >= 0")
    if v["physics.r"] < 1:
        _fail("physics.r", f"absorption exponent must satisfy r >= 1, got {v['physics.r']}")
    if v["potential.kind"] not in POTENTIAL_KINDS:
        _fail("potential.kind", f"must be one of {POTENTIAL_KINDS}")
    if not 0 < v["potential.theta"]:
        _fail("potential.theta", "temperature must be positive")
    if not v["potential.theta"] < v["potential.theta_c"]:
        _fail(
            "potential.theta_c",
            f"need 0 < theta < theta_c, got theta={v['potential.theta']}, "
            f"theta_c={v['potential.theta_c']}",
        )
    if not 0 < v["potential.epsilon"] <= EPS_MAX:
        _fail("potential.epsilon", f"must lie in (0, {EPS_MAX}]")
    if v["potential.c0"] != "auto" and v["potential.c0"] <= 0:
        _fail("potential.c0", "must be 'auto' or positive")
    if v["mobility.kind"] not in _MOBILITY_KINDS:
        _fail("mobility.kind", f"must be one of {_MOBILITY_KINDS}")
    if v["mobility.n"] < 1:
        _fail("mobility.n", "degeneracy exponent must be >= 1")
    if not 0 < v["mobility.epsilon"] <= EPS_MAX:
        _fail("mobility.epsilon", f"must lie in (0, {EPS_MAX}]")
    if v["forcing.kind"] not in FORCING_KINDS:
        _fail("forcing.kind", f"must be one of {FORCING_KINDS}")
    if v["init.noise_amp"] < 0:
        _fail("init.noise_amp", "must be >= 0")
    if v["init.velocity"] not in VELOCITY_KINDS:
        _fail("init.velocity", f"must be one of {VELOCITY_KINDS}")
    if v["potential.kind"] == "logarithmic":
        reach = abs(v["init.phi_mean"]) + v["init.noise_amp"]
        if reach >= 1.0:
            _fail(
                "init.noise_amp",
                f"|phi_mean| + noise_amp = {reach} must stay below 1 "
                "for the logarithmic potential",
            )
    if v["output.every_k_steps"] < 1:
        _fail("output.every_k_steps", "must be >= 1")


def build_materials(cfg):
    """(potential, mobility) pair for a validated config."""
    v = cfg.values
    if v["potential.kind"] == "regular":
        pot = regular_potential()
    else:
        pot = logarithmic_potential(v["potential.theta"], v["potential.theta_c"])
    if v["potential.c0"] != "auto":
        pot = replace(pot, c0=v["potential.c0"])
    if v["potential.kind"] == "regularized":
        pot = regularize_potential(pot, v["potential.epsilon"])

    if v["mobility.kind"] == "constant":
        mob = constant_mobility(1.0)
    else:
        mob = regularize_mobility(degenerate_mobility(v["mobility.n"]), v["mobility.epsilon"])
    return pot, mob


def build_params(cfg):
    v = cfg.values
    forcing = ForcingSpec(
        kind=v["forcing.kind"],
        amplitude=v["forcing.amplitude"],
        omega=v["forcing.omega"],
    )
    return SolverParams(
        nu=v["physics.nu"],
        beta=v["physics.beta"],
        r=v["physics.r"],
        dt=v["time.dt"],
        t_final=v["time.t_final"],
        forcing=forcing,
    )


def build_simulation(cfg, phi=None, u=None):
    """Grid, materials, params and initial state assembled into a Simulation.

    A cell array ``phi`` and a `VectorField` ``u`` replace the configured
    initial fields: a given ``phi`` skips the noise draw, a given ``u`` the
    vortex projection.  Every other variation of a run is a config key.
    """
    v = cfg.values
    grid = Grid(v["grid.dim"], v["grid.n"])
    pot, mob = build_materials(cfg)
    state = initial_state(
        grid,
        phi_mean=v["init.phi_mean"],
        noise_amp=v["init.noise_amp"],
        seed=v["init.seed"],
        velocity=v["init.velocity"],
        velocity_amp=v["init.velocity_amp"],
        phi=phi,
        u=u,
    )
    return Simulation(grid, build_params(cfg), pot, mob, state)
