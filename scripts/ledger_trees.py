"""Write the output trees that the bitwise gate compares, with a chosen chns.

    python3 scripts/ledger_trees.py --src <checkout>/src OUT
    python3 scripts/ledger_trees.py --compare OUT_A OUT_B
    python3 scripts/ledger_trees.py --digest OUT > tests/ledger_digests.json

`RUNS` is the one catalogue of product runs: this gate writes it and
``scripts/unreached.py --product`` traces it.  Each entry is one ``chns``
command.  Its tree ``OUT/NAME/`` holds what the command writes, and
``verify``'s printed table as ``table.txt``; its config or plan file is
``OUT/NAME.cfg``.  `write_trees` runs every entry through ``chns.cli.main``
in one process, in OUT, so that no file embeds the absolute OUT path.
``--src`` runs it in one child interpreter with ``PYTHONPATH=<src>``, in
about 2.5 s.

The catalogue covers every study, every potential, mobility, forcing and
velocity kind, dims 2 and 3, ``mobility.n = 2``, ``verify`` with and
without a config, ``plot``, and a plan written through its own
``output.dir``.  The studies and the small simulates take 20 steps each.
The two refinements are separate plans, so the script also runs on
checkouts that cannot write a report mixing both modes.  Two checkouts
agree bit for bit when ``diff -r OUT_A OUT_B`` is empty.

Where a change legitimately moves roundoff (a different but exact solver),
``--compare`` checks the trees within a tolerance instead.  Every number in
a text file (CSV columns, chart coordinates) and every ``final_state.chns``
array entry, read with ``chns.cli.load_state_dump``, must satisfy
``|a - b| <= 1e-12 max(|a|, |b|) + 1e-13``; the floor covers columns that
sit at roundoff, such as ``div_max``.  ``nan`` and ``inf`` count as numbers
only as whole words, and equal values (equal infinities, or nan against
nan) differ by 0.  The text around the numbers must match exactly.  It
prints the largest difference per file and exits 1 when any file breaks
the bound or exists in only one tree.

``--digest`` prints, as JSON, the SHA-256 of every file under OUT, the
fingerprint of what the bits depend on besides chns (numpy, its OpenBLAS
build and the core kernel OpenBLAS chose, the SIMD extensions numpy
dispatches to, Python) and an excerpt: the last row of every CSV, and every
``summary.csv`` and ``notes.csv`` whole.
``tests/ledger_digests.json`` holds this record for the committed code, and
``tests/test_ledger_digests.py`` writes the trees and checks them with
`check_digests`: every byte on the record's fingerprint, the excerpt within
the ``--compare`` bound on any other.  A change that moves bits regenerates
the record, so its diff names every moved file.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np

RTOL = 1e-12
ATOL = 1e-13
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")

VORTEX = (
    "time.dt = 1e-4\nphysics.nu = 1.0\nphysics.beta = 1.0\nphysics.r = 3\n"
    "potential.kind = regular\nmobility.kind = constant\ninit.noise_amp = 0.05\n"
    "init.velocity = vortex\ninit.velocity_amp = 0.1\ninit.seed = 4242\n"
    "output.every_k_steps = 1\n"
)
STEPS = "time.dt = 1e-4\ntime.t_final = 0.002\n"  # 20 steps
# name: (command, text).  The text is the config or plan file NAME.cfg, or
# for `plot` its arguments; `cli_args` builds the command line.
RUNS = {
    # every step of 300 at 64^2, and of 20 at 16^3, in diagnostics.csv
    "vortex64": ("simulate", VORTEX + "grid.dim = 2\ngrid.n = 64\ntime.t_final = 0.03\n"),
    "vortex16_3d": ("simulate", VORTEX + "grid.dim = 3\ngrid.n = 16\ntime.t_final = 0.002\n"),
    "forced16": ("simulate", (
        "# quartic well, steady forcing\ngrid.n = 16\ninit.velocity = vortex\n"
        "forcing.kind = steady\nforcing.amplitude = 20\noutput.every_k_steps = 1\n" + STEPS
    )),
    "log_forced16": ("simulate", (
        "grid.n = 16\npotential.kind = logarithmic\nmobility.kind = clamped\n"
        "init.noise_amp = 0.5\nforcing.kind = time_profile\nforcing.amplitude = 1\n" + STEPS
    )),
    "regularized8_3d": ("simulate", (
        "grid.dim = 3\ngrid.n = 8\npotential.kind = regularized\nmobility.kind = clamped\n"
        "mobility.n = 2\ninit.velocity = vortex\n" + STEPS
    )),
    "r_sweep": ("experiment", (
        "experiment.kind = r_sweep\nr_sweep.r_list = 1, 2, 3, 4\ngrid.n = 16\n"
        "init.velocity = vortex\n" + STEPS
    )),
    # rough 32^2 data that fires the Newton fallback
    "epsilon_sweep": ("experiment", (
        "experiment.kind = epsilon_sweep\nepsilon_sweep.eps_list = 0.2, 0.1, 0.05\n"
        "grid.n = 32\ntime.dt = 1e-4\ntime.t_final = 0.002\ninit.noise_amp = 0.8\n"
    )),
    "epsilon_sweep_n2": ("experiment", (
        "experiment.kind = epsilon_sweep\nepsilon_sweep.eps_list = 0.2, 0.1, 0.05\n"
        "grid.n = 16\nmobility.n = 2\ninit.noise_amp = 0.6\n" + STEPS
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
    "plan_dir": ("experiment", (
        "experiment.kind = refinement\nrefinement.dt_list = 4e-4, 2e-4, 1e-4\n"
        "grid.n = 16\ntime.t_final = 4e-4\noutput.dir = plan_dir\n"
    )),
    # the material checks evaluate every potential law, and the short run
    # reports the degenerate energy residual
    "verify": ("verify", (
        "grid.n = 32\ntime.dt = 1e-4\ntime.t_final = 0.003\npotential.kind = logarithmic\n"
        "mobility.kind = clamped\nmobility.epsilon = 0.2\ninit.noise_amp = 0.5\n"
        "init.velocity = vortex\n"
    )),
    "verify_default": ("verify", None),
    "plot": ("plot", "--csv forced16/diagnostics.csv --columns kinetic,work"),
}


def cli_args(name, command, text):
    """The ``chns.cli.main`` arguments of entry ``name``, relative to OUT."""
    if command == "plot":
        return ["plot", *text.split(), "--out", name]
    args = [command]
    if text is not None:
        args += ["--plan" if command == "experiment" else "--config", f"{name}.cfg"]
    if command != "verify" and "output.dir" not in text:
        args += ["--out", name]
    return args


def write_trees(out):
    """Write every entry of `RUNS` under ``out`` with the chns this process
    imports; returns the argument lists of the runs that did not exit 0."""
    from chns import cli

    os.makedirs(out, exist_ok=True)
    out, cwd = os.path.abspath(out), os.getcwd()
    failed = []
    os.chdir(out)
    try:
        for name, (command, text) in RUNS.items():
            args = cli_args(name, command, text)
            if f"{name}.cfg" in args:
                with open(f"{name}.cfg", "w", encoding="utf-8") as fh:
                    fh.write(text)
            if command == "verify":  # prints its table and writes no file
                os.makedirs(name, exist_ok=True)
                with open(os.path.join(name, "table.txt"), "w", encoding="utf-8") as fh, \
                        contextlib.redirect_stdout(fh):
                    status = cli.main(args)
            else:
                status = cli.main(args)
            print(f"{name}: {os.path.join(out, name)}" if status == 0 else
                  f"{name}: chns {' '.join(args)} exited {status}")
            if status != 0:
                failed.append(args)
    finally:
        os.chdir(cwd)
    return failed


def _numbers(a, b):
    """The numbers of two texts as arrays, or None when the text between the
    numbers differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    return np.array(NUMBER.findall(a), dtype=float), np.array(NUMBER.findall(b), dtype=float)


def _text_values(path_a, path_b):
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        return _numbers(fa.read(), fb.read())


def _dump_values(path_a, path_b):
    from chns.cli import load_state_dump

    dumps = [load_state_dump(path) for path in (path_a, path_b)]
    if dumps[0][:2] != dumps[1][:2]:
        return None
    return tuple(np.concatenate([x.ravel() for x in arrays]) for _, _, arrays in dumps)


def _within_bound(a, b):
    """|a - b| per number, 0 where the two are equal (nan against nan too),
    and whether each lies within RTOL / ATOL."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):  # inf - inf and nan - nan are masked as same
        diff = np.where(same, 0.0, np.abs(a - b))
    bound = RTOL * np.maximum(np.abs(a), np.abs(b)) + ATOL
    return diff, same | (np.isfinite(diff) & (diff <= bound))


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
        diff, ok = _within_bound(a, b)
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


def fingerprint():
    """What the trees' bits depend on besides chns.  The OpenBLAS entry is
    the configuration string of the library numpy bundles, which names its
    version and the core kernel it chose on this machine; "unknown" when
    numpy bundles none.  The SIMD entry names the instruction sets numpy's
    own kernels (log1p among them) dispatch to, and the features
    ``NPY_DISABLE_CPU_FEATURES`` turns off when it is set."""
    blas = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                                  "libscipy_openblas*"))
    get_config = libs and getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_config64_", None)
    if get_config:
        get_config.restype = ctypes.c_char_p
        blas = get_config().decode()
    machine = {"numpy": np.__version__, "openblas": blas, "python": platform.python_version(),
               "simd": np.show_config(mode="dicts")["SIMD Extensions"]}
    if "NPY_DISABLE_CPU_FEATURES" in os.environ:
        machine["npy_disable_cpu_features"] = os.environ["NPY_DISABLE_CPU_FEATURES"]
    return machine


def digest(out):
    """The `fingerprint`, the SHA-256 of every file under ``out`` and the
    excerpt: the last row of every CSV, every summary.csv and notes.csv whole."""
    sha, excerpt = {}, {}
    for rel in sorted(_files(out)):
        with open(os.path.join(out, rel), "rb") as fh:
            data = fh.read()
        sha[rel] = hashlib.sha256(data).hexdigest()
        if rel.endswith(".csv"):
            text = data.decode("utf-8")
            whole = os.path.basename(rel) in ("summary.csv", "notes.csv")
            excerpt[rel] = text if whole else text.splitlines()[-1]
    return {"fingerprint": fingerprint(), "sha256": sha, "excerpt": excerpt}


def check_digests(out, record):
    """The lines where the trees under ``out`` break a `digest` ``record``;
    none when they agree.  On the record's fingerprint every file must have
    its SHA-256; on any other, every excerpt must agree within RTOL / ATOL."""
    now = digest(out)
    key = "sha256" if now["fingerprint"] == record["fingerprint"] else "excerpt"
    have, want = now[key], record[key]
    problems = [f"{rel}: only in {'the trees' if rel in have else 'the record'}"
                for rel in sorted(set(have) ^ set(want))]
    for rel in sorted(set(have) & set(want)):
        if key == "sha256":
            if have[rel] != want[rel]:
                problems.append(f"{rel}: SHA-256 differs")
            continue
        values = _numbers(want[rel], have[rel])
        if values is None:
            problems.append(f"{rel}: the excerpt's text differs")
        elif not _within_bound(*values)[1].all():
            problems.append(f"{rel}: the excerpt differs beyond the bound")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", help="the src/ directory of a chns checkout")
    ap.add_argument("--compare", nargs=2, metavar=("OUT_A", "OUT_B"),
                    help="compare two written trees within the tolerance instead")
    ap.add_argument("--digest", metavar="OUT",
                    help="print the digest record of the trees written under OUT")
    ap.add_argument("out", nargs="?", help="directory to write the trees under")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.digest:
        print(json.dumps(digest(args.digest), indent=1, sort_keys=True))
        return 0
    if args.src is None or args.out is None:
        ap.error("writing trees needs --src and OUT")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    child = ("import runpy, sys\n"
             "sys.exit(bool(runpy.run_path(sys.argv[1])['write_trees'](sys.argv[2])))")
    return subprocess.run([sys.executable, "-c", child, os.path.abspath(__file__), args.out],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
