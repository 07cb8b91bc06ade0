"""`scripts/ledger_trees.py`: its run catalogue reaches every kind, study
and command, and ``--compare`` lets two output trees agree within
|a - b| <= 1e-12 max(|a|, |b|) + 1e-13 in every number, and exactly in the
text around them."""

import importlib.util
import os
import shutil
import struct

import numpy as np
import pytest

from chns.cli import MAGIC
from chns.config import _MOBILITY_KINDS, parse_config
from chns.experiments import _RUNNERS, parse_plan
from chns.materials import POTENTIAL_KINDS
from chns.solver import FORCING_KINDS, VELOCITY_KINDS

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "ledger_trees.py")
CSV = "t,energy,div_max\n0.0,6.448453359726646,1.7e-15\n0.0001,0.5,nan\n"
SVG = '<polyline points="80,50 310,512.786"/>\n'


@pytest.fixture(scope="module")
def ledger_trees():
    spec = importlib.util.spec_from_file_location("ledger_trees", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalogue_reaches_every_kind_study_and_command(ledger_trees):
    # both gates run this catalogue, so a kind, study or command with no
    # entry is a blind spot of both
    configs, studies, commands = [], set(), []
    for name, (command, text) in ledger_trees.RUNS.items():
        args = ledger_trees.cli_args(name, command, text)
        commands.append(args)
        if command == "experiment":
            plan = parse_plan(text)
            studies.add(plan.kind)
            configs.append(plan.base)
        elif command != "plot":
            configs.append(parse_config(text or ""))

    def seen(key):
        return {cfg[key] for cfg in configs}

    assert seen("potential.kind") == set(POTENTIAL_KINDS)
    assert seen("mobility.kind") == set(_MOBILITY_KINDS)
    assert seen("forcing.kind") == set(FORCING_KINDS)
    assert seen("init.velocity") == set(VELOCITY_KINDS)
    assert seen("grid.dim") == {2, 3}
    assert max(seen("mobility.n")) >= 2
    assert studies == set(_RUNNERS)
    assert ["verify"] in commands
    assert any(args[:2] == ["verify", "--config"] for args in commands)
    # an experiment written through its plan's own output.dir, which is
    # relative, so that no tree embeds the absolute OUT path
    assert any(args[0] == "experiment" and "--out" not in args for args in commands)
    assert not any(os.path.isabs(d) for d in seen("output.dir"))
    assert any(args[0] == "plot" for args in commands)


def _write_tree(root, csv=CSV, svg=SVG, dump_scale=1.0):
    os.makedirs(root / "run")
    (root / "run" / "diagnostics.csv").write_text(csv)
    (root / "run" / "chart.svg").write_text(svg)
    n = 8
    values = dump_scale * np.linspace(-1.0, 1.0, 2 * n * n + 2 * n * (n + 1))
    (root / "run" / "final_state.chns").write_bytes(
        MAGIC + struct.pack("<II", 2, n) + values.astype("<f8").tobytes()
    )


@pytest.mark.parametrize("edit, status", [
    ({}, 0),
    ({"csv": CSV.replace("6.448453359726646", "6.448453359726652")}, 0),
    ({"csv": CSV.replace("1.7e-15", "4.6e-15")}, 0),  # a roundoff-level column
    ({"dump_scale": 1.0 + 1e-15}, 0),
    ({"csv": CSV.replace("6.448453359726646", "6.448453359736646")}, 1),
    ({"csv": CSV.replace("nan", "0.0")}, 1),
    ({"dump_scale": 1.0 + 1e-10}, 1),
    ({"svg": SVG.replace("points", "point")}, 1),
    ({"csv": CSV.replace("div_max", "div_max2")}, 1),
    ({"csv_a": "informative\n", "csv": "informative\n"}, 0),  # a word's inf is text
    ({"csv_a": "inf\n", "csv": "inf\n"}, 0),
    ({"csv_a": "inf\n", "csv": "1e308\n"}, 1),
], ids=["same", "roundoff", "floor", "dump-roundoff", "csv-beyond", "nan-vs-number",
        "dump-beyond", "text", "header", "word-with-inf", "inf", "inf-vs-1e308"])
@pytest.mark.filterwarnings("error")  # inf - inf or nan - nan must not reach numpy
def test_compare_applies_the_bound(ledger_trees, tmp_path, capsys, edit, status):
    _write_tree(tmp_path / "a", csv=edit.get("csv_a", CSV))
    _write_tree(tmp_path / "b", **{k: v for k, v in edit.items() if k != "csv_a"})
    assert ledger_trees.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == status
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == ("trees agree within tolerance" if status == 0 else "trees differ")


def test_compare_flags_a_missing_file(ledger_trees, tmp_path, capsys):
    _write_tree(tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    os.remove(tmp_path / "b" / "run" / "chart.svg")
    assert ledger_trees.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert f"run/chart.svg: only in {tmp_path / 'a'}" in capsys.readouterr().out
