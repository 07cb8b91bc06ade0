"""The benchmark's workloads: what each runs, and the gates its output must pass.

A workload is set up once (config or plan parse, ``build_simulation``,
warm-up steps) and then runs its fixed job repeatedly.  ``job`` returns a
``Job`` with the wall time, the completed steps, one wall time per
``Simulation.step`` and the gate results.  A gate that misses is a failure;
no gate is ever skipped.
"""

import ast
import contextlib
import csv
import io
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass, field

import chns.config
from chns.cli import main as chns_main
from chns.errors import ChnsError
from chns.experiments import parse_plan
from chns.solver import Simulation

WARMUP_STEPS = 3
MASS_TOL = 1e-12
ENERGY_TOL = 1e-12
DIV_TOL = 1e-10


@dataclass
class Job:
    wall_s: float
    steps: int
    step_s: list
    attempted: int = 0
    failed: int = 0
    misses: list = field(default_factory=list)

    def gate(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(name)


def _records_finite(records):
    return all(math.isfinite(v) for r in records for v in vars(r).values())


def _mass_drift(masses):
    return max(abs(m - masses[0]) for m in masses)


def _energy_rise(energies):
    return max((b - a for a, b in zip(energies, energies[1:])), default=0.0)


class SingleRun:
    """One simulation stepped by the benchmark's own timed loop."""

    def __init__(self, steps, seed, extra_config, energy_gate=True, div_gate=False):
        self.steps = steps
        self.energy_gate = energy_gate
        self.div_gate = div_gate
        self.text = (
            "grid.dim = 2\n"
            "time.dt = 1e-4\n"
            "physics.nu = 1.0\nphysics.beta = 1.0\nphysics.r = 3\n"
            "potential.kind = regular\nmobility.kind = constant\n"
            "init.noise_amp = 0.05\ninit.velocity = vortex\ninit.velocity_amp = 0.1\n"
            f"init.seed = {seed}\n" + extra_config
        )
        self.cfg = None

    def setup(self):
        self.cfg = chns.config.parse_config(self.text)
        sim = chns.config.build_simulation(self.cfg)
        for _ in range(WARMUP_STEPS):
            sim.step()

    def job(self):
        sim = chns.config.build_simulation(self.cfg)
        perf = time.perf_counter
        step_s = []
        failed_steps = 0
        t0 = perf()
        for _ in range(self.steps):
            a = perf()
            try:
                sim.step()
            except ChnsError:
                failed_steps = 1
                break
            step_s.append(perf() - a)
        wall = perf() - t0
        job = Job(wall, len(step_s), step_s,
                  attempted=len(step_s) + failed_steps, failed=failed_steps)
        if failed_steps:
            job.misses.append("step raised ChnsError")
        recs = sim.ledger.records
        job.gate("mass drift <= 1e-12", _mass_drift([r.mass for r in recs]) <= MASS_TOL)
        if self.energy_gate:
            rise = _energy_rise([r.energy for r in recs])
            job.gate("E never rises by more than 1e-12 E0", rise <= ENERGY_TOL * recs[0].energy)
        if self.div_gate:
            job.gate("div_max <= 1e-10", max(r.div_max for r in recs) <= DIV_TOL)
        job.gate("every record finite", _records_finite(recs))
        return job

    def close(self):
        pass


EPS_LIST = (0.2, 0.1, 0.05)


class EpsSweep:
    """``chns experiment`` on an epsilon_sweep plan, gated on its written report."""

    def __init__(self, root, seed, steps):
        self.steps_per_run = steps
        self.runs = len(EPS_LIST) + 1  # pooled sweep runs + log-potential companion
        self.workdir = os.path.join(root, ".bench_out", f"eps_sweep-{seed}-{os.getpid()}")
        self.plan_path = os.path.join(self.workdir, "sweep.plan")
        self.out_dir = os.path.join(self.workdir, "report")
        self.text = (
            "experiment.kind = epsilon_sweep\n"
            f"experiment.seed = {seed}\n"
            f"epsilon_sweep.eps_list = {', '.join(map(str, EPS_LIST))}\n"
            "grid.n = 64\n"
            "time.dt = 1e-4\n"
            f"time.t_final = {steps * 1e-4!r}\n"
            f"init.noise_amp = {1.0 - max(EPS_LIST)!r}\n"
            f"init.seed = {seed}\n"
        )

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        with open(self.plan_path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        plan = parse_plan(self.text)
        sim = chns.config.build_simulation(plan.base)
        for _ in range(WARMUP_STEPS):
            sim.step()

    def job(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        step_s = []
        inner = Simulation.step
        perf = time.perf_counter
        main = threading.main_thread()

        def timed_step(sim):
            # steps on pool threads overlap and wait on each other for the
            # interpreter lock, so only steps run on the main thread are timed
            if threading.current_thread() is not main:
                return inner(sim)
            a = perf()
            record = inner(sim)
            step_s.append(perf() - a)
            return record

        Simulation.step = timed_step
        try:
            t0 = perf()
            with contextlib.redirect_stdout(io.StringIO()):
                status = chns_main(["experiment", "--plan", self.plan_path, "--out", self.out_dir])
            wall = perf() - t0
        finally:
            Simulation.step = inner
        return self._check(wall, step_s, status)

    def _check(self, wall, step_s, status):
        root = os.path.join(self.out_dir, "epsilon_sweep")
        ledgers = {}
        for label in [f"eps{e:g}" for e in EPS_LIST] + ["logarithmic"]:
            path = os.path.join(root, f"run_{label}.csv")
            if os.path.exists(path):
                with open(path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                ledgers[label] = [{k: float(v) for k, v in row.items()} for row in rows]
        done = sum(len(rows) - 1 for rows in ledgers.values())
        expected = self.runs * self.steps_per_run
        job = Job(wall, done, step_s, attempted=expected, failed=max(expected - done, 0))
        if status != 0 or done < expected:
            job.misses.append(f"experiment exit {status}, {done} of {expected} steps")
            job.failed = max(job.failed, 1)

        notes = {}
        notes_path = os.path.join(root, "notes.csv")
        if os.path.exists(notes_path):
            # values may hold commas (lists), so split each line at the first one
            with open(notes_path, encoding="utf-8") as fh:
                notes = dict(line.rstrip("\n").partition(",")[::2] for line in fh)
        overshoots = ast.literal_eval(notes.get("terminal_overshoots", "[]"))
        job.gate("terminal overshoots weakly decreasing",
                 len(overshoots) == len(EPS_LIST)
                 and all(b <= a + 1e-14 for a, b in zip(overshoots, overshoots[1:])))
        log_rows = ledgers.get("logarithmic", [])
        job.gate("log-run max|phi| < 1",
                 bool(log_rows) and max(r["phi_max"] for r in log_rows) < 1.0)
        for label in [f"eps{e:g}" for e in EPS_LIST] + ["logarithmic"]:
            rows = ledgers.get(label, [])
            job.gate(f"{label}: mass drift <= 1e-12",
                     bool(rows) and _mass_drift([r["mass"] for r in rows]) <= MASS_TOL)
            energies = [r["kinetic"] + r["interfacial"] + r["bulk"] for r in rows]
            job.gate(f"{label}: E non-increasing",
                     bool(rows) and _energy_rise(energies) <= ENERGY_TOL * max(energies[0], 1.0))
        return job

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# default steps per job (per run of the sweep for eps_sweep): about a second
# each, so a run holds tens of jobs.  BENCHMARK.json gives the reason each
# workload was chosen.
JOB_STEPS = {"desk64": 100, "forced128": 40, "eps_sweep": 20}


def make(name, root, seed, steps=None):
    steps = steps or JOB_STEPS[name]
    if name == "desk64":
        return SingleRun(steps, seed, "grid.n = 64\nforcing.kind = zero\n")
    if name == "forced128":
        return SingleRun(
            steps, seed,
            "grid.n = 128\nforcing.kind = steady\nforcing.amplitude = 20.0\n",
            energy_gate=False, div_gate=True,
        )
    return EpsSweep(root, seed, steps)
