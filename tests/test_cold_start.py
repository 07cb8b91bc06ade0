"""Start-up cost and memory: no run loads a scipy module, ``numpy.random``
or ``hashlib``.

``import chns`` and a regular/constant run load no scipy module at all:
the Poisson solves and the CH preconditioner transform by cached
orthonormal bases.  Nor does a rough step that fires the Newton fallback,
whose ``gmres`` is chns's own (a spy on ``solver.gmres`` shows it fired).
The entropy function is in closed form, so neither building
``EntropyFunction`` nor a whole ``epsilon_sweep`` study loads one either
(``scipy.integrate`` once pulled in the ``scipy.optimize`` subtree).
``initial_state`` draws its noise from chns's own port of numpy's
SeedSequence and PCG64, so none of these stages loads ``numpy.random``,
whose bit generators pull in ``secrets``, ``hmac`` and ``hashlib``
(OpenSSL): about 6 MB of resident memory.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import sys

def heavy_modules():
    return sorted(name for name in sys.modules
                  if name.startswith(("scipy", "numpy.random")) or name == "hashlib")

import chns
assert heavy_modules() == [], f"import chns loaded {heavy_modules()}"
from chns.config import build_simulation, parse_config

sim = build_simulation(parse_config(
    "grid.n = 32\\npotential.kind = regular\\nmobility.kind = constant\\n"
))
sim.run(n_steps=3)
assert len(sim.ledger.records) == 4
assert heavy_modules() == [], f"a regular/constant run loaded {heavy_modules()}"

import chns.solver as solver
from chns.grid import Grid
from chns.materials import degenerate_mobility, logarithmic_potential, regularize_mobility

fired = []
gmres = solver.gmres
solver.gmres = lambda *args, **kwargs: fired.append(1) or gmres(*args, **kwargs)
rough = solver.initial_state(Grid(2, 32), 0.0, 0.8, seed=1234, velocity="zero")
solver.step_coupled(rough, solver.SolverParams(dt=1e-4), logarithmic_potential(),
                    regularize_mobility(degenerate_mobility(1), 0.2))
solver.gmres = gmres
assert fired, "the rough step did not fire the Newton fallback"
assert heavy_modules() == [], f"a Newton-firing step loaded {heavy_modules()}"

from chns.experiments import parse_plan, run_experiment
from chns.materials import EntropyFunction, constant_mobility

for mob in (constant_mobility(1.0), regularize_mobility(degenerate_mobility(1), 0.1)):
    EntropyFunction(mob)
    assert heavy_modules() == [], f"EntropyFunction({mob.kind}) loaded {heavy_modules()}"

report = run_experiment(parse_plan(
    "experiment.kind = epsilon_sweep\\n"
    "epsilon_sweep.eps_list = 0.2, 0.1, 0.05\\n"
    "grid.n = 16\\ntime.dt = 1e-4\\ntime.t_final = 2e-4\\n"
))
assert all(len(ledger.records) == 3 for ledger in report.ledgers.values())
assert heavy_modules() == [], f"an epsilon_sweep study loaded {heavy_modules()}"
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
