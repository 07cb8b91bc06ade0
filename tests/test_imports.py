"""Every name a chns module, demo, script or test imports is used, or its
import line says why not, and every name a module's ``__all__`` exports
exists.

No linter ships with the package, so these are its unused-import and
undefined-export rules: each ``src/chns/*.py`` except ``__init__.py`` is
walked with ``ast``, and so is each ``demos/*.py``, ``scripts/*.py`` and
``tests/*.py`` for unused imports.  A name bound by an import must appear
as a name somewhere else in the module (or in its ``__all__``); an import
line marked ``# noqa: F401`` is exempt.  That marker is reserved for the
names kept only so the benchmark tracer can rebind them: under
``src/chns`` each marked name must be an (owner, name) pair of
``tests/test_bench_hooks.HOOKS``.  A name listed in ``__all__`` must be
bound at the module's top level.

No module under ``src/chns`` imports scipy, at any depth, function bodies
included: scipy serves the tests as an oracle only, and loading
``scipy.sparse.linalg`` alone costs a run about 30 MB of resident memory.
"""

import ast
import importlib
import os

import pytest
from test_bench_hooks import HOOKS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "chns")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")
SOURCES = sorted(os.path.join(d, f) for d in ("demos", "scripts", "tests")
                 for f in os.listdir(os.path.join(ROOT, d)) if f.endswith(".py"))


def _imported(source):
    """(line, name, marked) of each name an import in ``source`` binds,
    ``marked`` when its import line carries ``# noqa: F401``."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                lineno = getattr(alias, "lineno", node.lineno)
                marked = any("# noqa: F401" in lines[i - 1] for i in (lineno, node.lineno))
                yield lineno, alias.asname or alias.name.split(".")[0], marked


def unused_imports(source):
    """(line, name) of each imported name ``source`` never uses, skipping
    import lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    return [(lineno, name) for lineno, name, marked in _imported(source)
            if not marked and name not in used]


def marked_imports(source):
    """(line, name) of each imported name ``source`` marks ``# noqa: F401``."""
    return [(lineno, name) for lineno, name, marked in _imported(source) if marked]


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


def scipy_imports(source):
    """Line of each absolute import of scipy or a scipy submodule anywhere
    in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES + SOURCES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC if module in MODULES else ROOT, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("module", MODULES)
def test_marked_imports_are_tracer_hooks(module):
    owner = importlib.import_module(f"chns.{module[:-3]}")
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        marked = marked_imports(fh.read())
    assert [(line, name) for line, name in marked if (owner, name) not in HOOKS] == []


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_package_does_not_import_scipy(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert scipy_imports(fh.read()) == []


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


def test_checker_lists_marked_imports():
    source = (
        "import os  # noqa: F401\n"
        "import numpy as np\n"
        "from a.b import (\n    c,  # noqa: F401\n    d,\n)\n"
        "from .e import f, g as h  # noqa: F401  (a tracer rebinds them)\n"
        "x = np.zeros(1)\n"
    )
    assert marked_imports(source) == [(1, "os"), (4, "c"), (7, "f"), (7, "h")]


def test_checker_flags_scipy_imports():
    source = (
        "import scipy\n"
        "from . import scipy_like\n"
        "import numpy, scipy.fft as f\n"
        "def g():\n"
        "    from scipy.sparse.linalg import gmres\n"
        "    return gmres\n"
    )
    assert scipy_imports(source) == [1, 3, 5]


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
