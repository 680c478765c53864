"""Every name that a package module imports is read in that module: an
import left behind when its last use goes fails here."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "lipeq")


def unused_imports(source, filename="<source>"):
    """(line, name) of every name that an import in ``source`` binds and
    the module never reads."""
    tree = ast.parse(source, filename)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    out.append((node.lineno, name))
    return sorted(out)


def test_detector_flags_names_never_read():
    source = ("import os.path, json as js\n"
              "from fractions import Fraction\n"
              "from .ifs import SpecError\n"
              "from . import cylsets\n"
              "from .decide import _admissible\n"
              "from .patches import zone_words\n"
              "def f(x):\n"
              "    '''cylsets, SpecError'''\n"
              "    return os.path.join(zone_words(x), js)\n")
    assert unused_imports(source) == [(2, "Fraction"), (3, "SpecError"),
                                      (4, "cylsets"), (5, "_admissible")]


def test_every_package_import_is_read():
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            path = os.path.join(PACKAGE, name)
            with open(path) as fh:
                found[name] = unused_imports(fh.read(), path)
    assert "tstar.py" in found and "cli.py" in found
    assert {name: bad for name, bad in found.items() if bad} == {}
