"""The package stays pure standard library: every absolute import in
``src/lipeq`` names a module of the standard library."""

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "lipeq")


def outside_imports(source, filename="<source>"):
    """(line, module) of every absolute import in ``source`` whose
    top-level name is not a standard-library module.  Relative imports,
    the package's own, are skipped."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out.extend((node.lineno, name) for name in names
                   if name.split(".")[0] not in sys.stdlib_module_names)
    return out


def test_detector_flags_outside_imports():
    source = ("import os, numpy.linalg\n"
              "from fractions import Fraction\n"
              "from . import cylsets\n"
              "from .ifs import SpecError\n"
              "def f():\n"
              "    from hypothesis import given\n")
    assert outside_imports(source) == [(1, "numpy.linalg"), (6, "hypothesis")]


def test_package_imports_only_the_standard_library():
    found = {}
    for root, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    found[name] = outside_imports(fh.read(), path)
    assert "cli.py" in found and "certify.py" in found
    assert {name: bad for name, bad in found.items() if bad} == {}
