"""Every name a chns module, demo, script or test imports is used, or its
import line says why not, and every name a module's ``__all__`` exports
exists.

No linter ships with the package, so these are its unused-import and
undefined-export rules: each ``src/chns/*.py`` except ``__init__.py`` is
walked with ``ast``, and so is each ``demos/*.py``, ``scripts/*.py`` and
``tests/*.py`` for unused imports.  A name bound by an import must appear
as a name somewhere else in the module (or in its ``__all__``); an import
line marked ``# noqa: F401`` is exempt, those being the names kept only so
the benchmark tracer can rebind them.  A name listed in ``__all__`` must be
bound at the module's top level.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "chns")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")
SOURCES = sorted(os.path.join(d, f) for d in ("demos", "scripts", "tests")
                 for f in os.listdir(os.path.join(ROOT, d)) if f.endswith(".py"))


def unused_imports(source):
    """(line, name) of each imported name ``source`` never uses, skipping
    import lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                lineno = getattr(alias, "lineno", node.lineno)
                if "# noqa: F401" in lines[lineno - 1] or "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    return [(lineno, name) for lineno, name in imported if name not in used]


def _exports(tree):
    """The names listed in the module's ``__all__`` (none without one)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unbound_exports(source):
    """Names ``source`` lists in ``__all__`` but binds nowhere at top level."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in _exports(tree) if name not in bound]


@pytest.mark.parametrize("module", MODULES + SOURCES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC if module in MODULES else ROOT, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_bound(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unbound_exports(fh.read()) == []


def test_checker_flags_unused_and_honours_marker():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from math import pi, tau  # noqa: F401\n"
        "from a.b import (\n    c,\n    d,\n)\n"
        "x = np.zeros(1) + c\n"
    )
    assert unused_imports(source) == [(1, "os"), (6, "d")]


def test_checker_flags_unbound_exports():
    source = (
        "import numpy as np\n"
        "from math import pi\n"
        "__all__ = ['np', 'pi', 'f', 'C', 'X', 'Y', 'gone']\n"
        "X = 1\n"
        "Y: int = 2\n"
        "def f():\n    Z = 3\n    return Z\n"
        "class C:\n    W = 4\n"
    )
    assert unbound_exports(source) == ["gone"]
    assert unbound_exports("x = 1\n") == []
