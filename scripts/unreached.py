"""List the statement lines of chns that a pytest selection, or the product,
never executes.

    python3 scripts/unreached.py -- PYTEST_ARGS
    python3 scripts/unreached.py --product

The first form runs ``pytest.main(PYTEST_ARGS)`` in this process under a
line tracer (``sys.settrace`` and ``threading.settrace``) and then prints,
per module of ``src/chns`` beside this script, every statement line that no
test executed, followed by a total.  That ``src`` goes first on
``sys.path``, so the tests import the package being measured.  Code that a
test runs in a child interpreter (``subprocess``) is not seen, so give a
selection whose tests run chns in-process.  The exit status is pytest's.

The second form traces the product instead: ``write_trees`` of
``scripts/ledger_trees.py``, which runs ``chns.cli.main`` over the
catalogue the bitwise gate writes (every study, every config kind,
``verify`` with and without a config, ``plot``), then demos 01 and 04, in
a temporary directory.  It prints the unreached statements
the same way, then every function no run called, and exits 1 if any such
function is neither a failure path (`FAILURE_ONLY`) nor in `EXEMPT`.  A run
that fails exits 2.  Branches inside a reached function are listed but not
gated: the product data never takes some numerical guards.

A statement is its first line up to the end of its header: the whole of a
simple statement, the condition of an ``if`` or ``while``, the target and
iterable of a ``for``, the items of a ``with``.  It counts as executed when
the tracer saw any of those lines run.  Function and class definitions,
imports, docstrings, ``try:`` headers and the field annotations of a class
body are not listed: they run at import or have no code of their own.  A
function counts as called when the tracer saw a frame of its code.

The tracer uses only the standard library.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Try)

# functions that only a failure runs: the product run set succeeds
FAILURE_ONLY = ("config._fail", "errors.ConvergenceError.__init__", "errors.StepError.__init__")
# functions the product does not call yet, each with the reason it stays
EXEMPT = {
    "config.serialize_config": "the canonical config text a run digest and resume will record",
    "cli.load_state_dump": "reads simulate's dump: `ledger_trees.py --compare` and resume",
    "materials.EntropyFunction.derivative":
        "the tests' handle on G'; its code runs inside `value` at the clamp joints",
}

DEMOS = ("01_operator_toolkit", "04_regularization_ladder")


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _header_end(node):
    """Last line of ``node``'s own code: the end of a simple statement, or
    the line before the first statement of a compound one's body."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return body[0].lineno - 1
    return node.end_lineno


def statements(tree):
    """{first line: (first line, last line)} of every listed statement."""
    found = {}

    def visit(body, in_class):
        for i, node in enumerate(body):
            if not (isinstance(node, SKIPPED) or (i == 0 and _is_docstring(node))
                    or (in_class and isinstance(node, ast.AnnAssign))):
                found[node.lineno] = (node.lineno, max(node.lineno, _header_end(node)))
            for name in ("body", "orelse", "finalbody"):
                child = getattr(node, name, None)
                if isinstance(child, list):
                    visit(child, isinstance(node, ast.ClassDef))
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, False)

    visit(tree.body, False)
    return found


def functions(tree):
    """{qualified name: first line of its code object} of every function,
    methods and nested functions included; a decorated function's code
    starts at its first decorator."""
    found = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + node.name
                if not isinstance(node, ast.ClassDef):
                    found[name] = min([node.lineno] + [d.lineno for d in node.decorator_list])
                visit(node.body, name + ".")
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, None) or [], prefix)
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body, prefix)

    visit(tree.body, "")
    return found


def _sources():
    package = os.path.join(SRC, "chns")
    return sorted(os.path.join(package, f) for f in os.listdir(package) if f.endswith(".py"))


def traced(run, sources):
    """Call ``run()`` under the tracers; returns its value and, per source
    path, the executed lines and the first lines of the called code."""
    executed = {path: set() for path in sources}
    called = {path: set() for path in sources}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in executed:
            return None
        called[code.co_filename].add(code.co_firstlineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        value = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return value, executed, called


def report_statements(sources, executed):
    """Print the unreached statements per module and a total; returns the
    parsed trees by path."""
    trees = {}
    total = listed = 0
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        trees[path] = ast.parse("\n".join(lines), path)
        spans = statements(trees[path])
        listed += len(spans)
        missed = [first for first, (lo, hi) in sorted(spans.items())
                  if not executed[path].intersection(range(lo, hi + 1))]
        total += len(missed)
        rel = os.path.relpath(path, os.getcwd())
        print(f"{rel}: {len(missed)} of {len(spans)} statements unreached")
        for first in missed:
            print(f"  {first:5d}  {lines[first - 1].strip()}")
    print(f"total: {total} of {listed} statements unreached in {len(sources)} modules")
    return trees


def run_product():
    """Write the catalogue of ``scripts/ledger_trees.py`` and run the demos,
    in a temporary directory; returns the argv of the runs that failed."""
    write_trees = runpy.run_path(os.path.join(ROOT, "scripts", "ledger_trees.py"))["write_trees"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        failed = write_trees(tmp)
        for name in DEMOS:
            runpy.run_path(os.path.join(ROOT, "demos", f"{name}.py"), run_name="__main__")
    return failed


def product(sources):
    failed, executed, called = traced(run_product, sources)
    if failed:
        for argv in failed:
            print(f"product run failed: chns {' '.join(argv)}")
        return 2
    trees = report_statements(sources, executed)
    gated = []
    for path in sources:
        module = os.path.splitext(os.path.basename(path))[0]
        for name, first in sorted(functions(trees[path]).items(), key=lambda kv: kv[1]):
            name = f"{module}.{name}"
            if first in called[path]:
                continue
            why = ("failure path" if name in FAILURE_ONLY else EXEMPT.get(name)
                   or "reached by no product run")
            print(f"unreached function {name} ({os.path.relpath(path, os.getcwd())}:{first}): "
                  f"{why}")
            if name not in FAILURE_ONLY and name not in EXEMPT:
                gated.append(name)
    print(f"{len(gated)} unreached functions outside the failure paths and exemptions")
    return int(bool(gated))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, SRC)
    sources = _sources()
    if argv == ["--product"]:
        return product(sources)
    pytest_args = argv[1:] if argv[:1] == ["--"] else argv
    import pytest

    status, executed, _ = traced(lambda: pytest.main(pytest_args), sources)
    report_statements(sources, executed)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
