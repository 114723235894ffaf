"""Every name a package module imports is used in that module, the
scalar core multiplies 3x3 matrices only through linalg._matmul3 and
_matvec3, no package module calls a LAPACK determinant (linalg.det3
is the only one), and no package module catches every exception (a bare
except, or except Exception or BaseException).

__init__.py is exempt from the import check: its imports are the public
re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "blochinv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The scalar core: its products are summed in one fixed order, not by BLAS.
SCALAR_CORE = [PACKAGE / name for name in ("linalg.py", "invariants.py", "orbits.py")]


def unused_imports(source):
    """Names bound by import statements in source and never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "invariants.py", "linalg.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused():
    source = "import math\nimport numpy as np\nfrom .errors import A, B\nB(np.pi)\n"
    assert unused_imports(source) == [(1, "math"), (3, "A")]


def matmul_lines(source):
    """Lines of source that use the @ operator, in an expression or as @=."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(getattr(node, "op", None), ast.MatMult))


@pytest.mark.parametrize("path", SCALAR_CORE, ids=lambda p: p.name)
def test_scalar_core_has_no_matmul_operator(path):
    assert matmul_lines(path.read_text()) == []


def test_detects_matmul():
    source = "@decorator\ndef f(a, b):\n    c = a @ b\n    c @= a\n    return a * b\n"
    assert matmul_lines(source) == [3, 4]


def lapack_det_lines(source):
    """Lines of source that name a linalg.det or linalg.slogdet attribute, or
    import det or slogdet from a linalg module."""
    names = ("det", "slogdet")
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            if any(alias.name in names for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_lapack_determinant(path):
    assert lapack_det_lines(path.read_text()) == []


def test_detects_lapack_determinant():
    source = ("import numpy as np\nfrom numpy import linalg\nfrom numpy.linalg import slogdet\n"
              "d = np.linalg.det(a)\ns = numpy.linalg.slogdet(a)\ndet = linalg.det\n"
              "x = det3(a)\ny = g.det\nfrom .linalg import det3\n")
    assert lapack_det_lines(source) == [3, 4, 5, 6]


def catch_all_lines(source):
    """Lines of source with a bare except or an except naming Exception or
    BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or getattr(t, "id", None) in ("Exception", "BaseException")
                   for t in caught):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_catch_all_except(path):
    assert catch_all_lines(path.read_text()) == []


def test_detects_catch_all_except():
    source = ("try:\n    f()\nexcept:\n    pass\ntry:\n    f()\nexcept Exception:\n    pass\n"
              "try:\n    f()\nexcept (ValueError, BaseException) as e:\n    pass\n"
              "try:\n    f()\nexcept (ValueError, errors.BlochInvError):\n    pass\n")
    assert catch_all_lines(source) == [3, 7, 11]
