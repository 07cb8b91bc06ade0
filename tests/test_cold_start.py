"""Start-up cost: scipy's integrate and sparse-linalg stacks load on first use."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import sys

import chns
from chns.config import build_simulation, parse_config

sim = build_simulation(parse_config(
    "grid.n = 32\\npotential.kind = regular\\nmobility.kind = constant\\n"
))
sim.run(n_steps=3)
assert len(sim.ledger.records) == 4
for name in ("scipy.integrate", "scipy.sparse.linalg"):
    assert name not in sys.modules, f"{name} loaded by a regular/constant run"

from chns.materials import EntropyFunction, degenerate_mobility, regularize_mobility

EntropyFunction(regularize_mobility(degenerate_mobility(1), 0.1))
assert "scipy.integrate" in sys.modules
print("ok")
"""


def test_regular_run_does_not_load_integrate_or_sparse_linalg():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
