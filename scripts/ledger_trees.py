"""Write the output trees that the bitwise gate compares, with a chosen chns.

    python3 scripts/ledger_trees.py --src <checkout>/src OUT
    python3 scripts/ledger_trees.py --compare OUT_A OUT_B

runs the ``chns`` CLI of that checkout (``python -m chns.cli`` with
``PYTHONPATH=<src>``) nine times, once per study, and writes under OUT:

* ``vortex64/``: 300 steps of a 64^2, r = 3 vortex ``chns simulate``, every
  step recorded (``diagnostics.csv``, ``final_state.chns``);
* ``vortex16_3d/``: 20 steps of the same at 16^3;
* ``r_sweep/``: ``chns experiment`` with r in {1, 2, 3, 4} at 16^2;
* ``epsilon_sweep/``: ``chns experiment`` with eps 0.2 / 0.1 / 0.05 at
  32^2, on rough data that fires the Newton fallback;
* ``continuous_dependence/``: delta 1e-2 / 5e-3 / 2.5e-3, 20 steps at 16^2
  from vortex data;
* ``beta_nu_probe/``: (beta, nu) = (0.5, 1) and (2, 1), 20 steps at 16^2;
* ``refinement_space/``: the spatial refinement over grids 8, 16, 32;
* ``refinement_time/``: the temporal refinement over dt 4e-4 / 2e-4 / 1e-4
  at 16^2;
* ``verify/``: the table ``chns verify`` prints (``table.txt``) for a 32^2
  logarithmic potential with clamped mobility, whose material checks
  evaluate every potential law.

The two refinements are separate plans, so the script also runs on
checkouts that cannot write a report mixing both modes.  About 11 s in all.
Two checkouts agree bit for bit when ``diff -r OUT_A OUT_B`` is empty.

Where a change legitimately moves roundoff (a different but exact solver),
``--compare`` checks the trees within a tolerance instead.  Every number in
a text file (CSV columns, chart coordinates) and every ``final_state.chns``
array entry, read with ``chns.cli.load_state_dump``, must satisfy
``|a - b| <= 1e-12 max(|a|, |b|) + 1e-13``; the floor covers columns that
sit at roundoff, such as ``div_max``.  The text around the numbers must
match exactly.  It prints the largest difference per file and exits 1 when
any file breaks the bound or exists in only one tree.
"""

import argparse
import os
import re
import subprocess
import sys

import numpy as np

RTOL = 1e-12
ATOL = 1e-13
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")

VORTEX = (
    "time.dt = 1e-4\nphysics.nu = 1.0\nphysics.beta = 1.0\nphysics.r = 3\n"
    "potential.kind = regular\nmobility.kind = constant\ninit.noise_amp = 0.05\n"
    "init.velocity = vortex\ninit.velocity_amp = 0.1\ninit.seed = 4242\n"
    "output.every_k_steps = 1\n"
)
RUNS = {
    "vortex64": ("simulate", VORTEX + "grid.dim = 2\ngrid.n = 64\ntime.t_final = 0.03\n"),
    "vortex16_3d": ("simulate", VORTEX + "grid.dim = 3\ngrid.n = 16\ntime.t_final = 0.002\n"),
    "r_sweep": ("experiment", (
        "experiment.kind = r_sweep\nr_sweep.r_list = 1, 2, 3, 4\ngrid.n = 16\n"
        "time.dt = 1e-4\ntime.t_final = 0.02\ninit.velocity = vortex\n"
    )),
    "epsilon_sweep": ("experiment", (
        "experiment.kind = epsilon_sweep\nepsilon_sweep.eps_list = 0.2, 0.1, 0.05\n"
        "grid.n = 32\ntime.dt = 1e-4\ntime.t_final = 0.002\ninit.noise_amp = 0.8\n"
    )),
    "continuous_dependence": ("experiment", (
        "experiment.kind = continuous_dependence\n"
        "continuous_dependence.delta_list = 1e-2, 5e-3, 2.5e-3\n"
        "grid.n = 16\ntime.dt = 1e-4\ntime.t_final = 0.002\ninit.velocity = vortex\n"
    )),
    "beta_nu_probe": ("experiment", (
        "experiment.kind = beta_nu_probe\nbeta_nu.beta_list = 0.5, 2.0\n"
        "beta_nu.nu_list = 1, 1\ngrid.n = 16\ntime.dt = 1e-4\ntime.t_final = 0.002\n"
        "init.velocity = vortex\n"
    )),
    "refinement_space": ("experiment", (
        "experiment.kind = refinement\nrefinement.grid_list = 8, 16, 32\n"
        "time.dt = 1e-4\ntime.t_final = 0.002\ninit.noise_amp = 0.0\n"
    )),
    "refinement_time": ("experiment", (
        "experiment.kind = refinement\nrefinement.dt_list = 4e-4, 2e-4, 1e-4\n"
        "grid.n = 16\ntime.t_final = 0.002\n"
    )),
    "verify": ("verify", (
        "grid.n = 32\ntime.dt = 1e-4\ntime.t_final = 0.003\npotential.kind = logarithmic\n"
        "mobility.kind = clamped\nmobility.epsilon = 0.2\ninit.noise_amp = 0.5\n"
        "init.velocity = vortex\n"
    )),
}


def _text_values(path_a, path_b):
    """The numbers of two text files as arrays, or None when the text
    between the numbers differs."""
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = fa.read(), fb.read()
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    return np.array(NUMBER.findall(a), dtype=float), np.array(NUMBER.findall(b), dtype=float)


def _dump_values(path_a, path_b):
    from chns.cli import load_state_dump

    dumps = [load_state_dump(path) for path in (path_a, path_b)]
    if dumps[0][:2] != dumps[1][:2]:
        return None
    return tuple(np.concatenate([x.ravel() for x in arrays]) for _, _, arrays in dumps)


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}


def compare(root_a, root_b):
    """Compare two trees within RTOL / ATOL; returns the exit status."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    files_a, files_b = _files(root_a), _files(root_b)
    status = 0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {root_a if rel in files_a else root_b}")
        status = 1
    for rel in sorted(files_a & files_b):
        pair = (os.path.join(root_a, rel), os.path.join(root_b, rel))
        values = _dump_values(*pair) if rel.endswith(".chns") else _text_values(*pair)
        if values is None:
            print(f"{rel}: FAIL, the text or grid differs")
            status = 1
            continue
        a, b = values
        both_nan = np.isnan(a) & np.isnan(b)
        diff = np.where(both_nan, 0.0, np.abs(a - b))
        ok = both_nan | (diff <= RTOL * np.maximum(np.abs(a), np.abs(b)) + ATOL)
        line = f"{rel}: {diff.size} numbers"
        if diff.size and diff.max() > 0.0:
            worst = int(np.argmax(diff))
            line += f", max |a-b| = {diff[worst]:.3e} ({float(a[worst])!r} vs {float(b[worst])!r})"
        if not ok.all():
            line += f", FAIL at {int((~ok).sum())}"
            status = 1
        print(line)
    print("trees agree within tolerance" if status == 0 else "trees differ")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", help="the src/ directory of a chns checkout")
    ap.add_argument("--compare", nargs=2, metavar=("OUT_A", "OUT_B"),
                    help="compare two written trees within the tolerance instead")
    ap.add_argument("out", nargs="?", help="directory to write the trees under")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.src is None or args.out is None:
        ap.error("writing trees needs --src and OUT")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    for name, (command, text) in RUNS.items():
        out = os.path.abspath(os.path.join(args.out, name))
        os.makedirs(out, exist_ok=True)
        cfg = os.path.join(args.out, f"{name}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [sys.executable, "-m", "chns.cli", command,
                "--plan" if command == "experiment" else "--config", cfg]
        if command == "verify":  # prints its table and writes no file
            with open(os.path.join(out, "table.txt"), "w", encoding="utf-8") as fh:
                subprocess.run(argv, env=env, check=True, stdout=fh)
        else:
            subprocess.run(argv + ["--out", out], env=env, check=True)
        print(f"{name}: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
