"""chns benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload desk64 --seed 1234 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 0
    python3 bench/run.py --smoke

Run from the repository root.  Set-up (imports, config or plan parse,
``build_simulation`` and warm-up steps) is timed from the top of this file,
before ``import chns``; with ``--trace 0`` it is repeated in fresh child
processes spread over the run, and the median reported.  The workload's short
fixed job runs back to back until ``--seconds`` would be exceeded (at least
once), and every job's output is gated for correctness.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced jobs, prints the per-layer metrics from the traced ones and writes
their spans to ``.bench_out/``.  Every run prints the metrics by name with
their unit and the machine it ran on, then, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs the three workloads one after another, each in its
own process, and ends with one JSON object whose metric names are prefixed by
the workload.  ``--smoke`` runs every workload for a few steps, traced and
not, and checks that each metric named in ``BENCHMARK.json`` is printed with
its unit.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 6
WORKLOADS = ("desk64", "forced128", "eps_sweep")
THREAD_ENV = (
    "CHNS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# (name, unit) of the end-to-end metrics printed with --trace 0.  On the 2-core
# virtual machine this was tuned on, CPU speed flips between a fast mode and
# one about 1.4 times slower, for seconds to minutes at a time, so a run's job
# times and median step time move with the share of the run spent in each.  The 1st-percentile step time needs only
# a brief stay in the fast mode, so the JSON result carries it, set-up time and
# memory, and leaves the PRINTED_ONLY metrics on the lines above it.
PRINTED_ONLY = ("wall_s", "steps_per_s", "step_ms_p50", "step_ms_p90")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("step_ms_p1", "ms"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, default=1234, help="sets init.seed")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="quick self-check of every workload")
    p.add_argument("--job-steps", type=int, help="steps per job (per run for eps_sweep)")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_chns():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "chns", "__init__.py")):
        sys.exit(f"bench: no chns package under {SRC}; run from a chns checkout")
    sys.path.insert(0, SRC)
    import chns

    if os.path.dirname(os.path.abspath(chns.__file__)) != os.path.join(SRC, "chns"):
        sys.exit(f"bench: imported chns from {chns.__file__}, not from {SRC}")


def machine(args):
    import numpy
    import scipy

    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(args):
    """Set-up seconds measured by one fresh child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.job_steps:
        cmd += ["--job-steps", str(args.job_steps)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def run_jobs(workload, seconds, tracer=None, probe=None):
    """Jobs back to back until the next would overrun ``seconds``.

    With a tracer, jobs alternate plain and traced, starting plain.  With
    ``probe``, a callable that returns one set-up time, SETUP_PROBES probes
    run between jobs, spread evenly over the run, so that a spell of slow or
    fast host CPU moves few of them; their time is not counted in
    ``seconds``.  Returns (plain jobs, traced jobs, probe set-up times).
    """
    from layers import instrument

    plain, traced, setups = [], [], []
    probes = SETUP_PROBES if probe else 0
    start = time.perf_counter()
    paused = 0.0
    while True:
        if len(setups) < probes and time.perf_counter() - start - paused >= (
                seconds * len(setups) / probes):
            t = time.perf_counter()
            setups.append(probe())
            paused += time.perf_counter() - t
            continue
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            instrument(tracer)
            try:
                traced.append(workload.job())
            finally:
                tracer.restore()
        else:
            plain.append(workload.job())
        elapsed = time.perf_counter() - start - paused
        last = (traced if use_trace else plain)[-1].wall_s
        enough = plain and (tracer is None or traced)
        if enough and elapsed + last > seconds:
            while len(setups) < probes:
                setups.append(probe())
            return plain, traced, setups


def quantile(values, q):
    """Inclusive ``q``-quantile (0 <= q <= 1) of at least one value."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (pos - lo) * (data[hi] - data[lo])


def median_wall(jobs):
    return statistics.median(job.wall_s for job in jobs)


def end_to_end(jobs, setups):
    step_ms = [1e3 * s for job in jobs for s in job.step_s]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": median_wall(jobs),
        "steps_per_s": sum(job.steps for job in jobs) / sum(job.wall_s for job in jobs),
        "step_ms_p1": quantile(step_ms, 0.01),
        "step_ms_p50": quantile(step_ms, 0.5),
        "step_ms_p90": quantile(step_ms, 0.9),
        "peak_rss_mb": rss_mb,
    }
    units = dict(END_TO_END)
    detail = {
        "jobs": len(jobs),
        "job_wall_s": [job.wall_s for job in jobs],
        "step_samples": len(step_ms),
        "setup_samples_s": setups,
    }
    return {k: (v, units[k]) for k, v in metrics.items()}, detail


def per_layer(tracer, plain, traced):
    """Per-layer metrics, run details and the span gates of a traced run.

    The gates check the spans against what the benchmark's own loop counted
    and timed: one ``solver.step`` span per step, and the main-thread step
    spans lying inside the loop's timing of the same steps, short of it by at
    most the wrapper's entry and exit (5% is far above that).
    """
    from layers import PER_LAYER, analyse

    overhead = median_wall(traced) / median_wall(plain) - 1.0
    steps = sum(j.steps for j in traced)
    values, self_ms, acc = analyse(tracer, steps, len(traced), overhead)
    loop_s = sum(s for j in traced for s in j.step_s)
    loop_samples = sum(len(j.step_s) for j in traced)
    gates = {
        "spans nest inside known parents without overlap": acc["tree_ok"],
        "one solver.step span per step counted":
            acc["step_spans"] == steps and acc["main_step_spans"] == loop_samples,
        "step spans within 5% of the loop's own step timing":
            0.95 * loop_s <= acc["main_step_s"] <= loop_s,
        "wrapped callees outside solver take over 1% of the step": acc["callee_share"] > 0.01,
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    detail = {"traced_jobs": len(traced), "traced_steps": steps, "loop_step_s": loop_s,
              "self_ms_per_step": self_ms, "accounting": acc}
    return {k: (values[k], units[k]) for k, _, _ in PER_LAYER}, detail, gates


def run(args):
    import_chns()
    import workloads

    workload = workloads.make(args.workload, ROOT, args.seed, args.job_steps)
    try:
        workload.setup()
        own_setup = time.perf_counter() - T_START
        if args.setup_only:
            print(f"{own_setup!r}")
            return 0

        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
        probe = None if args.trace else lambda: probe_setup(args)
        plain, traced, setups = run_jobs(workload, args.seconds, tracer, probe)
    finally:
        workload.close()

    jobs = traced if args.trace else plain
    attempted = sum(j.attempted for j in plain + traced)
    failed = sum(j.failed for j in plain + traced)
    misses = sorted({m for j in plain + traced for m in j.misses})
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        metrics, detail, gates = per_layer(tracer, plain, traced)
        for name, ok in gates.items():
            attempted += 1
            if not ok:
                failed += 1
                misses.append(name)
        tracer.write_spans(stem + "-spans.csv")
    else:
        metrics, detail = end_to_end(jobs, [own_setup] + setups)

    info = machine(args)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                          if k not in PRINTED_ONLY}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"machine": info, "detail": detail, "misses": misses, **result,
                   "printed": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)

    print("machine " + json.dumps(info, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for miss in misses:
        print(f"gate missed: {miss}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<30} {value:.6g} {unit}")
    print(f"{args.workload:<10} {'fail_frac':<30} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} steps and gates)")
    print(json.dumps(result))
    return 0


def run_child(name, trace, args):
    """One workload in a fresh process; returns (lines, result or None, stderr)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.job_steps:
        cmd += ["--job-steps", str(args.job_steps)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return lines, result, done.stderr


def run_all(args):
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines, result, stderr = run_child(name, args.trace, args)
        print("\n".join(lines[:-1] if result else lines), flush=True)
        if result is None:
            sys.stderr.write(stderr)
            return 1
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = val
    print(json.dumps(total))
    return 0


def smoke(args):
    """Every workload, 3 steps per job, plain and traced; every metric printed."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args.seconds, args.job_steps = 1, 3
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{wl['name']} trace {trace}"
            lines, result, stderr = run_child(wl["name"], trace, args)
            if result is None:
                problems.append(f"{where}: no result: {stderr.strip()[-300:]}")
                continue
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {result}")
            printed = [[w[1], w[3]] for w in map(str.split, lines[:-1]) if len(w) >= 4]
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} missing or unit differs: {got}")
            shown = [(m["name"], m["unit"]) for m in spec[key]]
            if trace == 0:
                shown += [(n, u) for n, u in END_TO_END if n in PRINTED_ONLY] + [("fail_frac", "ratio")]
            for name, unit in shown:
                if [name, unit] not in printed:
                    problems.append(f"{where}: {name} not printed with its unit {unit}")
            print(f"smoke {where}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    for problem in problems:
        print(f"smoke problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    args = parse_args(argv)
    if args.smoke:
        return smoke(args)
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
