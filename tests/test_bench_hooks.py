"""The benchmark tracer's hooks: every name it rebinds is still there.

`bench/layers.py` instruments chns from outside by rebinding names in the
chns modules.  A refactor that removes or renames one of them breaks the
traced benchmark; this test makes it fail the suite instead.
"""

import os
import sys

import pytest

import chns.cli
import chns.config
import chns.experiments
import chns.grid
import chns.solver

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# (owner, name) of everything layers.instrument rebinds
HOOKS = [
    (chns.solver, "_lap_component_arr"),
    (chns.solver, "convection"),
    (chns.solver, "helmholtz_project_with_potential"),
    (chns.solver, "degenerate_identity_extras"),
    (chns.solver, "_cg_component"),
    (chns.solver, "dctn"),
    (chns.solver, "gmres"),
    (chns.solver.Simulation, "step"),
    (chns.config, "build_simulation"),
    (chns.experiments, "_run_parallel"),
    (chns.experiments, "overshoot_functional"),
    (chns.experiments, "entropy_functional"),
    (chns.experiments, "parse_extended"),
    (chns.experiments, "build_materials"),
    (chns.experiments, "build_params"),
    (chns.experiments, "write_chart"),
    (chns.experiments.ExperimentReport, "write"),
    (chns.cli, "run_experiment"),
]


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import layers

    yield layers
    sys.modules.pop("layers", None)


def test_tracer_hooks_bind_and_restore(layers):
    hooks = HOOKS + [(chns.solver, n) for n in layers._GRID_STENCILS + layers._MATERIALS]
    originals = [getattr(owner, name) for owner, name in hooks]
    tracer = layers.Tracer()
    try:
        layers.instrument(tracer)
        assert all(getattr(o, n) is not f for (o, n), f in zip(hooks, originals))
        cfg = chns.config.parse_config("grid.n = 16\ninit.velocity = vortex\n")
        sim = chns.config.build_simulation(cfg)
        for _ in range(2):
            sim.step()
    finally:
        tracer.restore()
    _, _, accounting = layers.analyse(tracer, steps=2, runs=1, overhead_frac=0.0)
    assert accounting["step_spans"] == 2
    assert accounting["tree_ok"]
    assert [getattr(owner, name) for owner, name in hooks] == originals
    assert chns.solver.convection is chns.grid.convection
