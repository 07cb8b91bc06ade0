"""Write the output trees that the bitwise gate compares, with a chosen chns.

    python3 scripts/ledger_trees.py --src <checkout>/src OUT

runs the ``chns`` CLI of that checkout (``python -m chns.cli`` with
``PYTHONPATH=<src>``) eight times, once per study, and writes under OUT:

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
  at 16^2.

The two refinements are separate plans, so the script also runs on
checkouts that cannot write a report mixing both modes.  About 11 s in all.
Two checkouts agree bit for bit when ``diff -r OUT_A OUT_B`` is empty.
"""

import argparse
import os
import subprocess
import sys

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
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the src/ directory of a chns checkout")
    ap.add_argument("out", help="directory to write the trees under")
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    for name, (command, text) in RUNS.items():
        out = os.path.abspath(os.path.join(args.out, name))
        os.makedirs(out, exist_ok=True)
        cfg = os.path.join(args.out, f"{name}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        flag = "--config" if command == "simulate" else "--plan"
        subprocess.run([sys.executable, "-m", "chns.cli", command, flag, cfg, "--out", out],
                       env=env, check=True)
        print(f"{name}: {out}")


if __name__ == "__main__":
    main()
