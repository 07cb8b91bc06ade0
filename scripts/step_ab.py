"""Step two chns trees in one process and compare every step bit for bit.

    python3 scripts/step_ab.py PARENT_SRC CHANGE_SRC --config FILE --blocks N [--steps K]

imports the ``chns`` package under each ``src/`` directory as its own
package (a temporary copy named ``chns_a`` or ``chns_b``; chns imports
itself only relatively), builds the simulation the config file describes
in both, and steps them alternately: N blocks of K steps per side, the side
that goes first swapping from block to block.  After each block every
column of the new records of the two ledgers must agree in every bit; the
first that does not is printed and the script exits 1.  At the end it
prints each side's q0.01, q0.1 and q0.5 step times and the relative change,
then each side's Python function calls per step: cProfile's count over one
more block of K steps per side, which is not timed (its records are
compared too).

Both sides step in the same process, interleaved, so they see the same CPU
speed.  That resolves per-step changes of a few percent that whole-run
pairs of ``bench/run.py`` hide when the host's CPU speed shifts between
runs.
"""

import argparse
import cProfile
import importlib
import os
import pstats
import shutil
import struct
import sys
import tempfile
import time

import numpy as np

QUANTILES = (0.01, 0.1, 0.5)


def load(src, name, root):
    """The chns package under ``src``, copied into ``root`` as ``name``."""
    shutil.copytree(os.path.join(src, "chns"), os.path.join(root, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.config")


def bits(value):
    return struct.pack("<d", value)


def first_difference(ledgers, start, stop):
    """(step, name, a, b) of the first ledger value in records
    ``start:stop`` whose bits differ between the two ledgers, or None."""
    la, lb = ledgers
    for i in range(start, stop):
        ra, rb = la.records[i], lb.records[i]
        for name in vars(ra):
            a, b = getattr(ra, name), getattr(rb, name)
            if bits(a) != bits(b):
                return i, name, a, b
    return None


def calls_per_step(sim, steps):
    """Python function calls per step that cProfile counts over ``steps``
    steps of ``sim``, the profiler's own calls left out."""
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(steps):
        sim.step()
    profile.disable()
    stats = pstats.Stats(profile).stats
    calls = sum(nc for (_, _, name), (_, nc, _, _, _) in stats.items() if "_lsprof" not in name)
    return calls / steps


def step_pairs(sims, blocks, steps):
    """Each side's step times and Python calls per step, or None after
    printing the first value that differs.  The block after the timed ones
    is profiled for the calls, and not timed."""
    times = ([], [])
    perf = time.perf_counter
    ledgers = [sim.ledger for sim in sims]
    difference = first_difference(ledgers, 0, 1)
    for block in range(blocks + 1):
        start = len(ledgers[0].records)
        if block == blocks:
            calls = [calls_per_step(sim, steps) for sim in sims]
        else:
            for side in ((0, 1) if block % 2 == 0 else (1, 0)):
                sim, out = sims[side], times[side]
                for _ in range(steps):
                    t0 = perf()
                    sim.step()
                    out.append(perf() - t0)
        difference = difference or first_difference(ledgers, start, len(ledgers[0].records))
        if difference:
            step, name, a, b = difference
            print(f"step {step}: {name} differs: parent {a!r}, change {b!r}")
            return None
    return times, calls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", help="src/ directory of the parent checkout")
    ap.add_argument("change_src", help="src/ directory of the changed checkout")
    ap.add_argument("--config", required=True, help="chns run config file")
    ap.add_argument("--blocks", type=int, required=True, help="blocks of steps per side")
    ap.add_argument("--steps", type=int, default=10, help="steps per side in a block")
    args = ap.parse_args(argv)
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()

    with tempfile.TemporaryDirectory() as root:
        sys.path.insert(0, root)
        try:
            configs = [load(os.path.abspath(src), name, root)
                       for src, name in ((args.parent_src, "chns_a"), (args.change_src, "chns_b"))]
            sims = [config.build_simulation(config.parse_config(text)) for config in configs]
            result = step_pairs(sims, args.blocks, args.steps)
        finally:
            sys.path.remove(root)
    if result is None:
        return 1
    times, calls = result
    print(f"{(args.blocks + 1) * args.steps} steps per side: every record value is bitwise equal")
    print(f"{'quantile':>8}  {'parent ms':>10}  {'change ms':>10}  {'change':>7}")
    for q in QUANTILES:
        a, b = (1e3 * float(np.quantile(t, q)) for t in times)
        print(f"{q:>8}  {a:>10.4f}  {b:>10.4f}  {100.0 * (b - a) / a:>+6.2f}%")
    print(f"Python calls per step (cProfile, {args.steps} more steps per side): "
          f"parent {calls[0]:.1f}, change {calls[1]:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
