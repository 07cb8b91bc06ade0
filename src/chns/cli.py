"""Command-line entry point: simulate, verify, experiment, plot.

All outputs land under the configured output directory.  CSV rows are
written line-buffered so an interrupted run still leaves a parseable file;
reruns with the same seed reproduce the same bytes.
"""

import argparse
import csv
import io
import math
import os
import struct
import sys

import numpy as np

from .checks import format_table, run_verify
from .config import build_simulation, parse_config
from .diagnostics import CSV_COLUMNS
from .errors import ChnsError
from .experiments import parse_plan, run_experiment
from .grid import Grid
from .svg import write_chart

MAGIC = b"CHNS1"


def _text(path, newline=None):
    """``path`` decoded as UTF-8 into a text stream, which translates line
    endings as ``open`` does; a byte that is not UTF-8 raises ChnsError
    naming the file and the byte's offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise ChnsError(f"{path}: not UTF-8 at byte offset {exc.start}") from None


def _load_config(path):
    if path is None:
        return parse_config("")
    return parse_config(_text(path).read())


def _dump_state(path, state):
    """Flat binary dump: magic, u32 dim, u32 n, then phi, velocity
    components and pressure as little-endian float64, row-major.  Velocity
    component c carries n+1 samples along axis c."""
    grid = state.phi.grid
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", grid.dim, grid.n))
        fh.write(np.ascontiguousarray(state.phi.data, dtype="<f8").tobytes())
        for comp in state.u.components:
            fh.write(np.ascontiguousarray(comp, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.pi.data, dtype="<f8").tobytes())


def load_state_dump(path):
    """Inverse of the simulate dump; returns (dim, n, [arrays]).

    Raises ChnsError when the file is shorter or longer than its header
    declares, declares a grid no run has (dim not 2 or 3, n < 8), or is not
    a dump at all."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = len(MAGIC) + 8
    if len(data) < head:
        raise ChnsError(
            f"truncated state dump {path}: expected at least {head} bytes, found {len(data)}"
        )
    if not data.startswith(MAGIC):
        raise ChnsError(f"bad magic {data[:len(MAGIC)]!r} in {path}")
    dim, n = struct.unpack_from("<II", data, len(MAGIC))
    if dim not in (2, 3):
        raise ChnsError(f"state dump {path} declares dim={dim}; expected 2 or 3")
    if n < 8:
        raise ChnsError(f"state dump {path} declares n={n}; expected n >= 8")
    grid = Grid(dim, n)
    shapes = [grid.cell_shape, *grid.face_shapes, grid.cell_shape]
    sizes = [math.prod(shape) for shape in shapes]
    expected = head + 8 * sum(sizes)
    if len(data) != expected:
        raise ChnsError(
            f"state dump {path} has the wrong size for dim={dim}, n={n}: "
            f"expected {expected} bytes, found {len(data)}"
        )
    flat = np.split(np.frombuffer(data, dtype="<f8", offset=head), np.cumsum(sizes)[:-1])
    return dim, n, [a.reshape(shape) for a, shape in zip(flat, shapes)]


def cmd_simulate(args):
    cfg = _load_config(args.config)
    if args.out:
        cfg = cfg.with_updates(output__dir=args.out)
    out_dir = cfg["output.dir"]
    os.makedirs(out_dir, exist_ok=True)
    sim = build_simulation(cfg)
    every = cfg["output.every_k_steps"]
    n_steps = sim.params.n_steps
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    status = 0
    with open(csv_path, "w", encoding="utf-8", buffering=1, newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write(sim.ledger.records[0].to_csv_row() + "\n")
        try:
            for k in range(1, n_steps + 1):
                record = sim.step()
                if k % every == 0 or k == n_steps:
                    fh.write(record.to_csv_row() + "\n")
        except ChnsError as exc:
            print(f"simulate: step failed: {exc}", file=sys.stderr)
            status = 1
    _dump_state(os.path.join(out_dir, "final_state.chns"), sim.state)
    return status


def cmd_verify(args):
    results = run_verify(_load_config(args.config))
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_experiment(args):
    plan = parse_plan(_text(args.plan).read())
    out_dir = args.out or plan.out_dir
    report = run_experiment(plan)
    paths = report.write(out_dir)
    for path in paths:
        print(path)
    return 0


def _column(path, header, rows, name):
    """Column ``name`` of ``rows``, (file row number, cells) pairs, as floats;
    a missing, non-numeric or non-finite cell raises ChnsError naming its row
    and column."""
    j = header.index(name)
    values = []
    for n, row in rows:
        try:
            values.append(float(row[j]))
        except (IndexError, ValueError):
            problem = f"not a number: {row[j]!r}" if j < len(row) else "missing"
            raise ChnsError(f"{path} row {n} column {name}: {problem}") from None
        if not math.isfinite(values[-1]):
            raise ChnsError(f"{path} row {n} column {name}: not finite: {row[j]!r}")
    return values


def cmd_plot(args):
    reader = csv.reader(_text(args.csv, newline=""))
    header = next(reader, None)
    if header is None:
        raise ChnsError(f"{args.csv} is empty")
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ChnsError(f"{args.csv} has no data rows")
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if not columns:
        raise ChnsError("no columns requested")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ChnsError(f"columns not in CSV: {missing}")
    if "t" not in header:
        raise ChnsError("CSV lacks a 't' column")
    t, *ys = (_column(args.csv, header, rows, name) for name in ["t", *columns])
    out_dir = args.out or os.path.dirname(os.path.abspath(args.csv))
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.csv))[0]
    for col, y in zip(columns, ys):
        path = os.path.join(out_dir, f"{stem}_{col}.svg")
        write_chart(path, f"{col} vs t", "t", col, [(t, y, col)])
        print(path)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chns",
        description="Coupled Cahn-Hilliard / damped Navier-Stokes desk simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation to t_final")
    p_sim.add_argument("--config", help="path to a key = value config file")
    p_sim.add_argument("--out", help="override output.dir")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the property suite")
    p_ver.add_argument("--config", help="path to a key = value config file")
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment", help="run a scripted study from a plan file")
    p_exp.add_argument("--plan", required=True, help="path to the plan file")
    p_exp.add_argument("--out", help="override output.dir")
    p_exp.set_defaults(func=cmd_experiment)

    p_plot = sub.add_parser("plot", help="render diagnostics columns as SVG charts")
    p_plot.add_argument("--csv", required=True, help="diagnostics CSV path")
    p_plot.add_argument("--columns", required=True, help="comma-separated column names")
    p_plot.add_argument("--out", help="output directory (default: CSV directory)")
    p_plot.set_defaults(func=cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChnsError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
