"""Per-layer tracing of chns, done from outside the package.

The layers are the modules of ``chns``.  Each instrumented name is a
function one chns module calls in another; ``instrument`` rebinds that name
in the caller's module namespace (or, for a method, on its class) to a
wrapper that records a span.  Nothing inside ``chns`` is edited, and
``Tracer.restore`` puts every original back.

A span is ``(id, parent, name, thread, start, end)``.  Parents are kept on
a per-thread stack because ``epsilon_sweep`` runs its steps on pool threads;
a pool task records the pool call on the submitting thread as its parent.
"""

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

import chns.cli
import chns.config
import chns.experiments
import chns.solver

STEP = "solver.step"
TASK = "experiments.task"
POOL = "experiments._run_parallel"
EXPERIMENT = "experiments.run_experiment"
REPORT_WRITE = "cli.report_write"
LAP_COMPONENT = "grid._lap_component_arr"
VISCOUS_CG = "solver._cg_component"
CONVECTION = "grid.convection"
PROJECT = "poisson.helmholtz_project_with_potential"
DEG_EXTRAS = "diagnostics.degenerate_identity_extras"

# grid functions solver calls besides the viscous matvec and convection
_GRID_STENCILS = (
    "_div_arrays", "_grad_arrays", "_lap_arr", "advect_scalar", "cell_to_face",
    "center_components", "dirichlet_energy", "divergence_fc", "face_speed",
    "vector_inner",
)
_MATERIALS = (
    "mobility_value", "potential_concave_deriv", "potential_convex_deriv",
    "potential_deriv", "potential_value",
)
_FUNCTIONALS = ("overshoot_functional", "entropy_functional")
_CONFIG_FROM_EXPERIMENTS = ("parse_extended", "build_materials", "build_params")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("solver.self_ms", "ms/step", "lower"),
    ("solver.viscous_matvecs", "count/step", "lower"),
    ("solver.viscous_solve_ms", "ms/step", "lower"),
    ("grid.lap_component_ms", "ms/step", "lower"),
    ("grid.viscous_mb_computed", "MB/step", "lower"),
    ("solver.ch_precond_applies", "count/step", "lower"),
    ("solver.ch_residual_evals", "count/step", "lower"),
    ("solver.newton_fallbacks", "count/run", "lower"),
    ("poisson.project_ms", "ms/step", "lower"),
    ("poisson.project_calls", "count/step", "lower"),
    ("poisson.cg_iters", "count/step", "lower"),
    ("poisson.residual_max", "ratio", "lower"),
    ("grid.convection_ms", "ms/step", "lower"),
    ("grid.stencil_ms", "ms/step", "lower"),
    ("materials.ms", "ms/step", "lower"),
    ("materials.calls", "count/step", "lower"),
    ("diagnostics.deg_extras_ms", "ms/step", "lower"),
    ("diagnostics.functionals_ms", "ms/step", "lower"),
    ("experiments.pool_workers", "count", "lower"),
    ("experiments.pool_wall_s", "s/run", "lower"),
    ("experiments.pool_busy_s", "s/run", "lower"),
    ("experiments.pool_concurrency", "ratio", "higher"),
    ("experiments.serial_s", "s/run", "lower"),
    ("cli.report_write_ms", "ms/run", "lower"),
    ("cli.bytes_written", "bytes/run", "lower"),
    ("svg.chart_ms", "ms/run", "lower"),
    ("config.build_ms", "ms/run", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class _ThreadLog:
    __slots__ = ("ident", "stack", "spans", "counters")

    def __init__(self, ident):
        self.ident = ident
        self.stack = []
        self.spans = []
        self.counters = {}


class Tracer:
    """Spans and counters kept in memory, one log per thread."""

    def __init__(self):
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs = []
        self._ids = itertools.count(1)
        self._patches = []

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def current(self):
        """Id of the innermost open span on this thread (0 at top level)."""
        stack = self._log().stack
        return stack[-1] if stack else 0

    def wrap(self, name, fn, after=None, parent=None):
        """``fn`` recorded as a span; ``after(counters, args, result)`` may
        add counts once the span has closed.  ``parent`` overrides the
        thread's own stack (a task run on another thread)."""
        ids, perf, get_log = self._ids, time.perf_counter, self._log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = get_log()
            sid = next(ids)
            up = parent if parent is not None else (log.stack[-1] if log.stack else 0)
            log.stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                log.stack.pop()
                log.spans.append((sid, up, name, log.ident, t0, t1))
            if after is not None:
                after(log.counters, args, result)
            return result

        return traced

    def counting(self, key, fn):
        """``fn`` counted under ``key`` but not timed."""
        get_log = self._log

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters = get_log().counters
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self):
        out = [s for log in self._logs for s in log.spans]
        out.sort()
        return out

    def counters(self):
        merged = {}
        for log in self._logs:
            for key, val in log.counters.items():
                if key.endswith("_max"):
                    merged[key] = max(merged.get(key, val), val)
                else:
                    merged[key] = merged.get(key, 0) + val
        return merged

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,thread,name,start_s,end_s\n")
            for sid, parent, name, thread, t0, t1 in self.spans():
                fh.write(f"{sid},{parent},{thread},{name},"
                         f"{t0 - self.origin:.9f},{t1 - self.origin:.9f}\n")


def _add(counters, key, amount):
    counters[key] = counters.get(key, 0) + amount


def _lap_bytes(counters, args, result):
    _add(counters, "grid.viscous_bytes", args[1].nbytes + result.nbytes)


def _projection_report(counters, args, result):
    report = result[2]
    _add(counters, "poisson.cg_iters", report.iterations)
    prev = counters.get("poisson.residual_max", 0.0)
    counters["poisson.residual_max"] = max(prev, report.relative_residual)


def _written_bytes(counters, args, result):
    _add(counters, "cli.bytes_written", sum(os.path.getsize(p) for p in result))


def instrument(tracer):
    """Rebind every traced call site; undo with ``tracer.restore()``."""
    solver, experiments = chns.solver, chns.experiments
    wrap, patch = tracer.wrap, tracer.patch

    def callee(module, name, layer, after=None):
        patch(module, name, wrap(f"{layer}.{name}", getattr(module, name), after))

    # solver -> grid, poisson, materials, diagnostics, scipy
    callee(solver, "_lap_component_arr", "grid", _lap_bytes)
    callee(solver, "convection", "grid")
    for name in _GRID_STENCILS:
        callee(solver, name, "grid")
    callee(solver, "helmholtz_project_with_potential", "poisson", _projection_report)
    for name in _MATERIALS:
        callee(solver, name, "materials")
    callee(solver, "degenerate_identity_extras", "diagnostics")
    # the viscous CG is solver's own code, wrapped so its time is measured
    # apart from the CH bookkeeping in the step itself
    callee(solver, "_cg_component", "solver")
    patch(solver, "dctn", tracer.counting("solver.ch_precond_applies", solver.dctn))
    patch(solver, "gmres", tracer.counting("solver.newton_fallbacks", solver.gmres))
    patch(solver.Simulation, "step", wrap(STEP, solver.Simulation.step))

    # benchmark -> config (the single-simulation workloads build through it)
    callee(chns.config, "build_simulation", "config")

    # experiments -> experiments pool, diagnostics, config, svg
    run_parallel = experiments._run_parallel

    def pooled(tasks):
        pool = tracer.current()
        return run_parallel([wrap(TASK, task, parent=pool) for task in tasks])

    patch(experiments, "_run_parallel", wrap(POOL, pooled))
    for name in _FUNCTIONALS:
        callee(experiments, name, "diagnostics")
    for name in _CONFIG_FROM_EXPERIMENTS:
        callee(experiments, name, "config")
    callee(experiments, "write_chart", "svg")

    # cli -> experiments, and the report writer cli invokes
    callee(chns.cli, "run_experiment", "experiments")
    patch(experiments.ExperimentReport, "write",
          wrap(REPORT_WRITE, experiments.ExperimentReport.write, _written_bytes))


def self_times(spans):
    """Span id -> its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1 in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def analyse(tracer, steps, runs, overhead_frac):
    """Per-layer metrics plus what the run's span gates need.

    ``steps`` and ``runs`` count the steps and workload jobs traced; per-step
    metrics are job totals divided by ``steps``.  Returns ``(metrics,
    self_ms, accounting)``.  ``self_ms`` is the self time per step of each
    layer and, under ``solver.step``, of each wrapped name.  ``accounting``
    holds what the caller compares with its own step count and timing: the
    ``solver.step`` spans (all, and those on the main thread with their
    summed seconds), the share of step time spent in wrapped callees outside
    the solver layer, and whether the spans nest: each lies inside a known
    parent, and the spans of one thread under one parent do not overlap.
    """
    spans = tracer.spans()
    counters = tracer.counters()
    own = self_times(spans)
    main = threading.main_thread().ident

    by_id = {}
    last_end = {}
    tree_ok = True
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    step_self = defaultdict(float)
    step_root = {}
    step_time = main_step_time = 0.0
    step_spans = main_step_spans = 0
    task_threads = defaultdict(set)
    # ids are taken when a span opens, so a parent sorts before its children
    for sid, parent, name, thread, t0, t1 in spans:
        by_id[sid] = (t0, t1)
        if parent:
            tree_ok = tree_ok and parent in by_id and by_id[parent][0] <= t0 <= t1 <= by_id[parent][1]
        # spans of one thread under one parent run one after another
        tree_ok = tree_ok and t0 >= last_end.get((parent, thread), t0)
        last_end[parent, thread] = t1
        total[name] += t1 - t0
        calls[name] += 1
        layer_self[layer_of(name)] += own[sid]
        root = sid if name == STEP else step_root.get(parent)
        if root is not None:
            step_root[sid] = root
            step_self[name] += own[sid]
        if name == STEP:
            step_spans += 1
            step_time += t1 - t0
            if thread == main:
                main_step_spans += 1
                main_step_time += t1 - t0
        if name == TASK:
            task_threads[parent].add(thread)

    def by_prefix(prefix):
        names = [n for n in total if n.startswith(prefix)]
        return sum(total[n] for n in names), sum(calls[n] for n in names)

    per_step = 1.0 / max(steps, 1)
    per_run = 1.0 / max(runs, 1)
    stencil = sum(total[f"grid.{n}"] for n in _GRID_STENCILS)
    materials_s, materials_calls = by_prefix("materials.")
    functionals = sum(total[f"diagnostics.{n}"] for n in _FUNCTIONALS)
    config_s, _ = by_prefix("config.")
    solver_self = layer_self["solver"]
    callee_s = sum(v for n, v in step_self.items() if layer_of(n) != "solver")
    pool_wall = total[POOL]
    pool_busy = total[TASK]

    metrics = {
        "solver.self_ms": 1e3 * solver_self * per_step,
        "solver.viscous_matvecs": calls[LAP_COMPONENT] * per_step,
        "solver.viscous_solve_ms": 1e3 * total[VISCOUS_CG] * per_step,
        "grid.lap_component_ms": 1e3 * total[LAP_COMPONENT] * per_step,
        "grid.viscous_mb_computed": 1e-6 * counters.get("grid.viscous_bytes", 0) * per_step,
        "solver.ch_precond_applies": counters.get("solver.ch_precond_applies", 0) * per_step,
        "solver.ch_residual_evals": calls["materials.potential_convex_deriv"] * per_step,
        "solver.newton_fallbacks": counters.get("solver.newton_fallbacks", 0) * per_run,
        "poisson.project_ms": 1e3 * total[PROJECT] * per_step,
        "poisson.project_calls": calls[PROJECT] * per_step,
        "poisson.cg_iters": counters.get("poisson.cg_iters", 0) * per_step,
        "poisson.residual_max": counters.get("poisson.residual_max", 0.0),
        "grid.convection_ms": 1e3 * total[CONVECTION] * per_step,
        "grid.stencil_ms": 1e3 * stencil * per_step,
        "materials.ms": 1e3 * materials_s * per_step,
        "materials.calls": materials_calls * per_step,
        "diagnostics.deg_extras_ms": 1e3 * total[DEG_EXTRAS] * per_step,
        "diagnostics.functionals_ms": 1e3 * functionals * per_step,
        "experiments.pool_workers": max((len(t) for t in task_threads.values()), default=0),
        "experiments.pool_wall_s": pool_wall * per_run,
        "experiments.pool_busy_s": pool_busy * per_run,
        "experiments.pool_concurrency": pool_busy / pool_wall if pool_wall > 0 else 0.0,
        "experiments.serial_s": (total[EXPERIMENT] - pool_wall) * per_run,
        "cli.report_write_ms": 1e3 * total[REPORT_WRITE] * per_run,
        "cli.bytes_written": counters.get("cli.bytes_written", 0) * per_run,
        "svg.chart_ms": 1e3 * total["svg.write_chart"] * per_run,
        "config.build_ms": 1e3 * config_s * per_run,
        "trace.overhead_frac": overhead_frac,
    }
    self_ms = {
        "layer": {k: 1e3 * v * per_step for k, v in sorted(layer_self.items())},
        "under_step": {k: 1e3 * v * per_step for k, v in sorted(step_self.items())},
    }
    accounting = {
        "step_spans": step_spans,
        "main_step_spans": main_step_spans,
        "main_step_s": main_step_time,
        "step_ms": 1e3 * step_time * per_step,
        "callee_share": callee_s / step_time if step_time > 0 else 0.0,
        "tree_ok": tree_ok,
        "spans": len(spans),
    }
    return metrics, self_ms, accounting
