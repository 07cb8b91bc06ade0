"""The demos run to completion: each exits 0 from a temporary copy.

Demo 02 writes ``out/`` beside itself, so every demo runs from a copy of
the ``demos/`` directory under ``tmp_path``.  The four demos start together
and each test waits for its own.  Demo 03 is left out: it takes about 20 s
and repeats the dt pair of acceptance criterion 3
(``tests/test_acceptance.py``), which checks the same energy-balance rate.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_operator_toolkit", "02_coupled_decay_run", "04_regularization_ladder",
         "05_continuous_dependence"]


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    copy = tmp_path_factory.mktemp("demos") / "demos"
    shutil.copytree(os.path.join(ROOT, "demos"), copy, ignore=shutil.ignore_patterns("out"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    procs = {
        name: subprocess.Popen([sys.executable, f"{name}.py"], cwd=copy, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in DEMOS
    }
    yield copy, procs
    for proc in procs.values():
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(demo_runs, name):
    copy, procs = demo_runs
    _, err = procs[name].communicate(timeout=120)
    assert procs[name].returncode == 0, err
    if name.startswith("02"):
        assert sorted(os.listdir(copy / "out")) == [
            "decay_diagnostics.csv", "decay_dissipation.svg", "decay_energy.svg",
        ]
