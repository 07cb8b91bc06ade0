"""List the statement lines of chns that a pytest selection never executes.

    python3 scripts/unreached.py -- PYTEST_ARGS

runs ``pytest.main(PYTEST_ARGS)`` in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``) and then prints, per module of
``src/chns`` beside this script, every statement line that no test executed,
followed by a total.  That ``src`` goes first on ``sys.path``, so the tests
import the package being measured.  Code that a test runs in a child
interpreter (``subprocess``) is not seen, so give a selection whose tests run
chns in-process.

A statement is its first line up to the end of its header: the whole of a
simple statement, the condition of an ``if`` or ``while``, the target and
iterable of a ``for``, the items of a ``with``.  It counts as executed when
the tracer saw any of those lines run.  Function and class definitions,
imports, docstrings, ``try:`` headers and the field annotations of a class
body are not listed: they run at import or have no code of their own.

Only the standard library is used.  The exit status is pytest's.
"""

import ast
import os
import sys
import threading

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Try)


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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    pytest_args = argv[1:] if argv[:1] == ["--"] else argv

    package = os.path.join(SRC, "chns")
    sources = sorted(os.path.join(package, f) for f in os.listdir(package) if f.endswith(".py"))
    executed = {path: set() for path in sources}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in executed else None

    sys.path.insert(0, SRC)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = listed = 0
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        spans = statements(ast.parse("\n".join(lines), path))
        listed += len(spans)
        missed = [first for first, (lo, hi) in sorted(spans.items())
                  if not executed[path].intersection(range(lo, hi + 1))]
        total += len(missed)
        rel = os.path.relpath(path, os.getcwd())
        print(f"{rel}: {len(missed)} of {len(spans)} statements unreached")
        for first in missed:
            print(f"  {first:5d}  {lines[first - 1].strip()}")
    print(f"total: {total} of {listed} statements unreached in {len(sources)} modules")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
