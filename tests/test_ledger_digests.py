"""The bitwise gate in tier-1: the trees of the `scripts/ledger_trees.py`
catalogue against the record in ``tests/ledger_digests.json``.

On the record's machine fingerprint every file must keep its SHA-256; on
any other, the excerpt (the last row of every CSV, every summary.csv and
notes.csv) must agree within ``--compare``'s bound.  A change that moves
bits regenerates the record:

    python3 scripts/ledger_trees.py --src src OUT
    python3 scripts/ledger_trees.py --digest OUT > tests/ledger_digests.json
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "ledger_trees.py")
RECORD = os.path.join(ROOT, "tests", "ledger_digests.json")


@pytest.fixture(scope="module")
def ledger_trees():
    spec = importlib.util.spec_from_file_location("ledger_trees", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    out = tmp_path_factory.mktemp("trees")
    done = subprocess.run([sys.executable, SCRIPT, "--src", os.path.join(ROOT, "src"), str(out)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return out


def test_trees_match_the_recorded_digests(ledger_trees, trees):
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    problems = ledger_trees.check_digests(trees, record)
    assert problems == [], "\n".join(problems)


def test_another_fingerprint_compares_the_excerpt_within_the_bound(ledger_trees, trees):
    # the fallback reads no SHA-256, only the excerpt.  Another numpy takes
    # it, and so does numpy's SIMD dispatch alone: with its AVX-512 kernels
    # disabled, 22 files of the trees move
    record = ledger_trees.digest(trees)
    here = record["fingerprint"]
    record["sha256"] = {}
    for other in (dict(here, simd=dict(here["simd"], found=[])), dict(here, numpy="0.0")):
        record["fingerprint"] = other
        assert ledger_trees.check_digests(trees, record) == []
    rel = "forced16/diagnostics.csv"
    cells = record["excerpt"][rel].split(",")  # t, mass, kinetic, ...
    for scale, expected in ((1 + 1e-14, []), (1 + 1e-9, [f"{rel}: the excerpt differs beyond "
                                                         "the bound"])):
        kinetic = repr(float(cells[2]) * scale)
        record["excerpt"][rel] = ",".join(cells[:2] + [kinetic] + cells[3:])
        assert ledger_trees.check_digests(trees, record) == expected
    record["excerpt"][rel] = "informative"
    assert ledger_trees.check_digests(trees, record) == [f"{rel}: the excerpt's text differs"]
    del record["excerpt"][rel]
    assert ledger_trees.check_digests(trees, record) == [f"{rel}: only in the trees"]


def test_the_fingerprint_names_the_disabled_cpu_features(ledger_trees, monkeypatch):
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    here = ledger_trees.fingerprint()
    assert {"baseline", "found"} <= set(here["simd"]) and "npy_disable_cpu_features" not in here
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR")
    assert ledger_trees.fingerprint() == dict(here, npy_disable_cpu_features="AVX512_SPR")
