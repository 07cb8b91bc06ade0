"""`scripts/step_ab.py`: two chns trees stepped in one process agree bit
for bit, or the script names the first value that differs and exits 1."""

import os
import re
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
    # 2 timed blocks and the profiled one, of 3 steps each
    out = _step_ab(tmp_path, SRC)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "9 steps per side: every record value is bitwise equal"
    assert [line.split()[0] for line in lines[2:5]] == ["0.01", "0.1", "0.5"]
    calls = re.fullmatch(r"Python calls per step \(cProfile, 3 more steps per side\): "
                         r"parent (\d+\.\d), change (\d+\.\d)", lines[5])
    assert calls and calls[1] == calls[2] and float(calls[1]) > 100.0


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
