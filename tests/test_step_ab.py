"""`scripts/step_ab.py`: two chns trees stepped in one process agree bit
for bit, or the script names the first value that differs and exits 1."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "step_ab.py")
SRC = os.path.join(ROOT, "src")
CONFIG = "grid.n = 16\ninit.velocity = vortex\npotential.kind = logarithmic\n" \
         "mobility.kind = clamped\n"


def _step_ab(tmp_path, change_src):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    return subprocess.run(
        [sys.executable, SCRIPT, SRC, change_src, "--config", str(cfg),
         "--blocks", "2", "--steps", "3"],
        capture_output=True, text=True, timeout=120,
    )


def test_checkout_against_itself_is_bitwise_equal(tmp_path):
    out = _step_ab(tmp_path, SRC)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "6 steps per side: every record value is bitwise equal" in out.stdout
    assert [line.split()[0] for line in out.stdout.splitlines()[2:]] == ["0.01", "0.1", "0.5"]


def test_a_changed_bit_fails(tmp_path):
    # a kinetic energy one part in 1e15 off is caught at the first step
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    solver = changed / "chns" / "solver.py"
    text = solver.read_text()
    kinetic = "kinetic=0.5 * vector_inner(u, u),"
    assert kinetic in text
    solver.write_text(text.replace(kinetic, "kinetic=0.5 * vector_inner(u, u) * (1 + 1e-15),"))
    out = _step_ab(tmp_path, str(changed))
    assert out.returncode == 1
    assert out.stdout.startswith("step 0: kinetic differs: parent ")
