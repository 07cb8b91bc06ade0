"""Every name a chns module imports is used, or its import line says why not.

No linter ships with the package, so this is its unused-import rule: each
``src/chns/*.py`` except ``__init__.py`` is walked with ``ast``, and a name
bound by an import must appear as a name somewhere else in the module (or
in its ``__all__``).  An import line marked ``# noqa: F401`` is exempt;
those are the names kept only so the benchmark tracer can rebind them.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "chns")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(lineno, name) for lineno, name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_checker_flags_unused_and_honours_marker():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from math import pi, tau  # noqa: F401\n"
        "from a.b import (\n    c,\n    d,\n)\n"
        "x = np.zeros(1) + c\n"
    )
    assert unused_imports(source) == [(1, "os"), (6, "d")]
