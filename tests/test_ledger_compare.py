"""`scripts/ledger_trees.py --compare`: two output trees agree within
|a - b| <= 1e-12 max(|a|, |b|) + 1e-13 in every number, and exactly in the
text around them."""

import importlib.util
import os
import shutil
import struct

import numpy as np
import pytest

from chns.cli import MAGIC

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
], ids=["same", "roundoff", "floor", "dump-roundoff", "csv-beyond", "nan-vs-number",
        "dump-beyond", "text", "header"])
def test_compare_applies_the_bound(ledger_trees, tmp_path, capsys, edit, status):
    _write_tree(tmp_path / "a")
    _write_tree(tmp_path / "b", **edit)
    assert ledger_trees.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == status
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == ("trees agree within tolerance" if status == 0 else "trees differ")


def test_compare_flags_a_missing_file(ledger_trees, tmp_path, capsys):
    _write_tree(tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    os.remove(tmp_path / "b" / "run" / "chart.svg")
    assert ledger_trees.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert f"run/chart.svg: only in {tmp_path / 'a'}" in capsys.readouterr().out
