"""`scripts/unreached.py`: the statement lines of chns a pytest selection
never executes."""

import importlib.util
import os
import re
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "unreached.py")


def _script():
    spec = importlib.util.spec_from_file_location("unreached", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_skip_definitions_imports_docstrings_and_fields():
    source = textwrap.dedent('''\
        """Module docstring."""
        import os
        LIMIT = 1

        class Spec:
            """Class docstring."""
            size: int = 0

            def method(self):
                """Method docstring."""
                if (self.size
                        > LIMIT):
                    return (1 +
                            2)
                try:
                    value = os.sep
                except OSError:
                    value = None
                return value
        ''')
    spans = _script().statements(__import__("ast").parse(source))
    assert spans == {3: (3, 3), 11: (11, 12), 13: (13, 14), 16: (16, 16), 18: (18, 18),
                     19: (19, 19)}


def test_config_rules_reach_their_fail_lines():
    # one fast selection: the validation rules reach every `_fail` of
    # config._validate, and leave some of the CLI unrun
    out = subprocess.run(
        [sys.executable, SCRIPT, "--", "-q", "-p", "no:cacheprovider",
         "tests/test_config_cli.py", "-k", "validation_rule"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    package = os.path.join(ROOT, "src", "chns")
    modules = sorted(f"src/chns/{f}" for f in os.listdir(package) if f.endswith(".py"))
    header = re.compile(r"^(src/chns/\w+\.py): \d+ of \d+ statements unreached$")
    assert [m.group(1) for m in map(header.match, lines) if m] == modules
    counts = {m.group(1): int(m.group(2)) for m in
              map(re.compile(r"^(src/chns/\w+\.py): (\d+) of").match, lines) if m}
    assert counts["src/chns/cli.py"] > 0
    listed = [line.strip() for line in lines if line.startswith("  ")]
    assert not any("_fail(" in line for line in listed)
    assert not any(re.match(r"\d+\s+(def |class |import |from |\"\"\")", line) for line in listed)
    assert re.match(r"^total: \d+ of \d+ statements unreached in \d+ modules$", lines[-1])


def test_functions_name_methods_nested_and_decorated_code():
    source = textwrap.dedent('''\
        import functools

        def plain():
            def inner():
                return 1
            return inner

        @functools.lru_cache
        @functools.wraps(plain)
        def cached():
            return 2

        class Spec:
            def method(self):
                return 3

        if True:
            def guarded():
                return 4
        ''')
    found = _script().functions(__import__("ast").parse(source))
    assert found == {"plain": 3, "plain.inner": 4, "cached": 8, "Spec.method": 14,
                     "guarded": 18}


def test_product_run_set_reaches_every_function():
    # every function of src/chns is called by a product run, is a failure
    # path or is exempt with a reason; an exempt function no longer unreached
    # should leave the list
    script = _script()
    out = subprocess.run([sys.executable, SCRIPT, "--product"],
                         capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[-1] == "0 unreached functions outside the failure paths and exemptions"
    unreached = {line.split()[2] for line in lines if line.startswith("unreached function ")}
    assert unreached <= set(script.FAILURE_ONLY) | set(script.EXEMPT)
    assert set(script.EXEMPT) <= unreached


def test_product_runs_exactly_the_catalogue(monkeypatch):
    # the product gate and the bitwise gate share `scripts/ledger_trees.py`'s
    # catalogue, so the two run sets cannot fork
    import chns.cli

    spec = importlib.util.spec_from_file_location(
        "ledger_trees", os.path.join(ROOT, "scripts", "ledger_trees.py"))
    trees = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trees)
    script = _script()
    calls = []
    monkeypatch.setattr(chns.cli, "main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(script, "DEMOS", ())
    assert script.run_product() == []
    assert calls == [trees.cli_args(name, *entry) for name, entry in trees.RUNS.items()]
