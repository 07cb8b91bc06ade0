"""Start-up cost: no scipy module loads until the Newton fallback needs one.

``import chns`` and a regular/constant run load no scipy module at all:
the Poisson solves and the CH preconditioner transform by cached
orthonormal bases, and ``scipy.sparse.linalg`` loads on first use, by the
Newton fallback's ``gmres``.  The entropy function is in closed form, so
neither building ``EntropyFunction`` nor a whole ``epsilon_sweep`` study
loads ``scipy.integrate`` or the ``scipy.optimize`` subtree it pulls in, nor
``scipy.fft``.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

import chns
assert scipy_modules() == [], f"import chns loaded {scipy_modules()}"
from chns.config import build_simulation, parse_config

sim = build_simulation(parse_config(
    "grid.n = 32\\npotential.kind = regular\\nmobility.kind = constant\\n"
))
sim.run(n_steps=3)
assert len(sim.ledger.records) == 4
assert scipy_modules() == [], f"a regular/constant run loaded {scipy_modules()}"

from chns.experiments import parse_plan, run_experiment
from chns.materials import (
    EntropyFunction, constant_mobility, degenerate_mobility, regularize_mobility,
)

UNUSED = ("scipy.integrate", "scipy.optimize", "scipy.fft")
for mob in (constant_mobility(1.0), regularize_mobility(degenerate_mobility(1), 0.1)):
    EntropyFunction(mob)
    for name in UNUSED:
        assert name not in sys.modules, f"{name} loaded by EntropyFunction({mob.kind})"

report = run_experiment(parse_plan(
    "experiment.kind = epsilon_sweep\\n"
    "epsilon_sweep.eps_list = 0.2, 0.1, 0.05\\n"
    "grid.n = 16\\ntime.dt = 1e-4\\ntime.t_final = 2e-4\\n"
))
assert all(len(ledger.records) == 3 for ledger in report.ledgers.values())
for name in UNUSED:
    assert name not in sys.modules, f"{name} loaded by an epsilon_sweep study"
print("ok")
"""


def test_cold_start_skips_integrate_and_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
