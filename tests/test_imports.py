"""Every name a package module imports is used in that module, the
scalar core multiplies 3x3 matrices only through linalg._matmul3 and
_matvec3, no package module calls a LAPACK determinant (linalg.det3
is the only one), no package module catches every exception (a bare
except, or except Exception or BaseException), and one function,
orbits._decide, builds every EquivalenceVerdict and is the only one to
catch DegenerateSpectrum. The input checks linalg._rows3, _vec3 and
_sym_rows3 are straight-line: no loop, comprehension, generator, lambda,
map, all or any. A checked pair (linalg._Checked), the one checked type,
is built only by _rows3 and _scaled, and no function returns or stores a
pair whole; a vector is read once by each public function it reaches. Every top-level
function and class of a package module is referenced somewhere in the
package, so no layer outlives its last package caller. Only
blochinv.groups and blochinv.verify import numpy: the modules of the
command-line path import it nowhere, not even inside a function body,
importing the package loads neither of the two, and the state and
Jacobian functions that used to return arrays run with numpy blocked.

__init__.py is exempt from the import check: its imports are the public
re-exports.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "blochinv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The scalar core: its products are summed in one fixed order, not by BLAS.
SCALAR_CORE = [PACKAGE / name for name in ("linalg.py", "invariants.py", "orbits.py")]
# The modules the invariants, equiv, canonical and restrict commands load.
NUMPY_FREE = [PACKAGE / f"{name}.py" for name in
              ("errors", "linalg", "invariants", "orbits", "states", "serialize", "cli")]


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


def verdict_sites(source):
    """(line, function) of every EquivalenceVerdict call and every except
    naming DegenerateSpectrum, alone or in a tuple, in source; function is
    the enclosing top-level function, None at module level."""
    def named(node, name):
        return getattr(node, "id", getattr(node, "attr", None)) == name

    sites = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and named(node.func, "EquivalenceVerdict"):
                sites.append((node.lineno, owner))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(named(t, "DegenerateSpectrum") for t in caught):
                    sites.append((node.lineno, owner))
    return sorted(sites)


def test_one_function_decides():
    owners = {(path.name, owner) for path in MODULES
              for _, owner in verdict_sites(path.read_text())}
    assert owners == {("orbits.py", "_decide")}


def test_detects_verdict_sites():
    source = ("def _decide(g):\n    try:\n        next(g)\n    except DegenerateSpectrum:\n"
              "        return EquivalenceVerdict(1)\n"
              "def other():\n    try:\n        f()\n"
              "    except (ValueError, errors.DegenerateSpectrum):\n"
              "        pass\n    return orbits.EquivalenceVerdict(2)\n"
              "v = EquivalenceVerdict(3)\nisinstance(v, EquivalenceVerdict)\n")
    assert verdict_sites(source) == [(4, "_decide"), (5, "_decide"), (9, "other"),
                                     (11, "other"), (12, None)]


# The input checks of every 3x3 and 3-vector argument and of every density
# matrix, each one straight-line pass on named locals, by module.
STRAIGHT_LINE_CHECKS = ("_rows3", "_vec3", "_sym_rows3")
STRAIGHT_LINE = {"linalg.py": STRAIGHT_LINE_CHECKS,
                 "states.py": ("_checked_density", "_density_body")}
ITERATION = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp, ast.Lambda)


def iteration_lines(source, names):
    """(line, function) of every loop, comprehension, generator expression,
    lambda and call of map, all or any in the top-level functions of source
    named in names."""
    sites = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name in names:
            for node in ast.walk(top):
                if isinstance(node, ITERATION) or (
                        isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) in ("map", "all", "any")):
                    sites.append((node.lineno, top.name))
    return sorted(sites)


def test_input_checks_are_straight_line():
    for module, names in STRAIGHT_LINE.items():
        source = (PACKAGE / module).read_text()
        defined = {top.name for top in ast.parse(source).body
                   if isinstance(top, ast.FunctionDef)}
        assert defined >= set(names), module
        assert iteration_lines(source, names) == [], module


def test_detects_iteration():
    source = ("def _rows3(a):\n    for x in a:\n        pass\n    b = [x for x in a]\n"
              "    c = all(map(f, a))\n    d = (x for x in a)\n    return lambda: {x: 1 for x in a}\n"
              "def _vec3(v):\n    while v:\n        v = any(v)\n    return max(abs(v[0]), abs(v[1]))\n"
              "def other(a):\n    return [x for x in a]\n")
    assert iteration_lines(source, STRAIGHT_LINE_CHECKS) == [
        (2, "_rows3"), (4, "_rows3"), (5, "_rows3"), (5, "_rows3"), (6, "_rows3"), (7, "_rows3"),
        (7, "_rows3"), (9, "_vec3"), (10, "_vec3")]


# The functions that hand out a checked pair (linalg._Checked) whole: the
# check, the check with its symmetry test, and the division.
PAIR_SOURCES = ("_rows3", "_sym_rows3", "_scaled")
def checked_builds(source):
    """(line, function, type) of every call of _Checked in the top-level
    functions of source."""
    return sorted((node.lineno, top.name, node.func.id)
                  for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)
                  for node in ast.walk(top)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Checked")


def pair_escapes(source):
    """(line, function) of every return, yield or attribute store, outside
    PAIR_SOURCES, whose value holds a whole checked pair: a call of one of
    PAIR_SOURCES, or a name assigned one, that is not indexed, unpacked
    with * or handed to a private function. A public callee, a record
    class among them, counts as keeping what it is given."""
    def call_name(node):
        return getattr(node.func, "id", getattr(node.func, "attr", ""))

    def whole(node, pairs):
        if (isinstance(node, ast.Call) and call_name(node) in PAIR_SOURCES) or (
                isinstance(node, ast.Name) and node.id in pairs):
            return True
        if isinstance(node, (ast.Subscript, ast.Starred)) or (
                isinstance(node, ast.Call) and call_name(node).startswith("_")):
            return False
        return any(whole(child, pairs) for child in ast.iter_child_nodes(node))

    sites = []
    for top in ast.parse(source).body:
        if not isinstance(top, ast.FunctionDef) or top.name in PAIR_SOURCES:
            continue
        pairs = set()
        for node in sorted((n for n in ast.walk(top) if isinstance(n, ast.Assign)),
                           key=lambda n: n.lineno):
            for target in node.targets:
                bound = ([(target, node.value)] if not isinstance(target, ast.Tuple) else
                         list(zip(target.elts, node.value.elts))
                         if isinstance(node.value, ast.Tuple) else [])
                for name, value in bound:
                    if isinstance(name, ast.Name):
                        (pairs.add if whole(value, pairs) else pairs.discard)(name.id)
        for node in ast.walk(top):
            stored = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Attribute) for t in node.targets)
            if (isinstance(node, (ast.Return, ast.Yield)) or stored) and node.value is not None \
                    and whole(node.value, pairs):
                sites.append((node.lineno, top.name))
    return sorted(sites)


def test_checked_pairs_stay_inside():
    builds = {(path.name, owner, kind) for path in MODULES
              for _, owner, kind in checked_builds(path.read_text())}
    assert builds == {("linalg.py", "_rows3", "_Checked"), ("linalg.py", "_scaled", "_Checked")}
    for path in MODULES:
        assert pair_escapes(path.read_text()) == [], path.name


def test_detects_checked_pairs():
    source = ("def _rows3(a):\n    return _Checked((a, 1.0))\n"
              "def f(a):\n    pair = _rows3(a)\n    rows = pair[0]\n    return _g(pair), rows\n"
              "def g(a, s):\n    p, q = _scaled(a, s), 2\n    (r, n), m = p, _rows3(a)\n"
              "    x = Record(w=p)\n    x.f = m\n    yield [n, r, *m], x\n    return _Checked(r)\n"
              "def h(a):\n    p = _sym_rows3(a)\n    p = p[0]\n    return p, _Checked(a)\n")
    assert checked_builds(source) == [(2, "_rows3", "_Checked"), (13, "g", "_Checked"),
                                      (17, "h", "_Checked")]
    assert pair_escapes(source) == [(11, "g"), (12, "g")]


def orphans(sources):
    """(module, name) of every top-level function and class of the modules
    in sources, a dict from file name to source, that no module references
    outside its own body. A reference is a bare name in the defining
    module, a name imported by from .module import name, or module.name
    where module is bound by from . import module; the names of
    dict.fromkeys in __init__.py (_LAZY) count for the module it names.
    Nothing __init__.py defines is a candidate."""
    defined, used = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        bound = {}  # local name -> the module file it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        bound[alias.asname or alias.name] = f"{alias.name}.py"
                    else:
                        used.add((f"{node.module}.py", alias.name))
        for top in tree.body:
            own = getattr(top, "name", None)
            if module != "__init__.py" and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id != own:
                        used.add((module, node.id))
                elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                      and isinstance(node.value, ast.Name) and node.value.id in bound):
                    used.add((bound[node.value.id], node.attr))
                elif (module == "__init__.py" and isinstance(node, ast.Call)
                      and getattr(node.func, "attr", None) == "fromkeys"):
                    names, target = node.args
                    used.update((f"{target.value}.py", name.value) for name in names.elts)
    return sorted(defined - used)


def test_no_helper_only_tests_call():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert orphans(sources) == []


def test_detects_orphans():
    sources = {
        "__init__.py": "from .a import f\n_LAZY = {**dict.fromkeys(('g',), 'a')}\n"
                       "def unused():\n    pass\n",
        "a.py": "def f():\n    return 1\ndef g():\n    pass\ndef h(n):\n    return h(n - 1)\n"
                "class K:\n    pass\ndef _used():\n    pass\ndef _lonely():\n    pass\n"
                "def _orphan(x):\n    return _used() + x.attr_used\n",
        "b.py": "from . import a as m\ndef attr_used():\n    pass\ndef by_import():\n    pass\n"
                "class L(m.K):\n    def f(self, _lonely):\n        return _lonely\n",
        "c.py": "from .b import by_import as bi\nVALUE = bi()\n",
    }
    assert orphans(sources) == [("a.py", "_lonely"), ("a.py", "_orphan"), ("a.py", "h"),
                                ("b.py", "L"), ("b.py", "attr_used")]


def numpy_imports(source):
    """Lines of source that import numpy (or a numpy submodule), at module
    level or inside a function or class body alike."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "numpy" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy" and not node.level:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", NUMPY_FREE, ids=lambda p: p.name)
def test_no_module_level_numpy_import(path):
    # Function bodies included: these modules import no numpy at all.
    assert numpy_imports(path.read_text()) == []


def test_detects_module_level_numpy_import():
    source = ("import numpy as np\nimport math, numpy.linalg\nfrom numpy import array\n"
              "def f():\n    import numpy as np\n    return np\n"
              "class C:\n    from numpy.random import default_rng\n"
              "    def g(self):\n        from numpy import zeros\n"
              "if True:\n    import numpy\nfrom .numpy import x\nimport numpyish\n")
    assert numpy_imports(source) == [1, 2, 3, 5, 8, 10, 12]


def test_package_import_loads_neither_groups_nor_verify():
    code = ("import sys, blochinv\n"
            "loaded = [m for m in ('numpy', 'blochinv.groups', 'blochinv.verify')\n"
            "          if m in sys.modules]\n"
            "names = dir(blochinv)\n"
            "print(loaded, 'run_all' in names, 'haar_so3' in names, "
            "callable(blochinv.run_all), callable(blochinv.haar_so3))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent).stdout
    assert out.split() == ["[]", "True", "True", "True", "True"]


def test_array_free_functions_run_with_numpy_blocked():
    from blochinv.invariants import lmm_invariants_jacobian
    from blochinv.states import bell_projector, bloch_vector, partial_trace

    rho2 = [[0.75, 0.25 - 0.5j], [0.25 + 0.5j, 0.25]]
    c = [[0.9, -0.2, 0.1], [0.3, 0.5, -0.4], [0.05, 0.2, -0.3]]
    code = ("import sys\nsys.modules['numpy'] = None\n"
            "from blochinv.invariants import lmm_invariants_jacobian\n"
            "from blochinv.states import bell_projector, bloch_vector, partial_trace\n"
            "print(repr((partial_trace(bell_projector('phi+'), 1), "
            f"bloch_vector({rho2!r}), lmm_invariants_jacobian({c!r}))))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent).stdout
    expected = (partial_trace(bell_projector("phi+"), 1), bloch_vector(rho2),
                lmm_invariants_jacobian(c))
    assert out == repr(expected) + "\n"
