"""Source hygiene: every name a greenball module imports is used, and imported
at the top of the module rather than inside a function; every private
module-level helper is referenced somewhere in the package, no module reads
another object's private (``_name``) attributes, every public name (in
``__all__``, or a module-level function or class) has a caller outside the
tests, every defaulted parameter is set by some call (and, in a private
helper, left to its default by some call), and the Nystrom path keeps its
dense linear algebra out of numpy's BLAS (no ``@``, no ``np.linalg``), and
the command line holds no boundary-condition data: it reads the family
registry in ``kernels``, and ``smallball`` imports nothing from
``spectrum``; ``import greenball`` loads no ``scipy.special``.

A name counts as used when the module refers to it anywhere in its code
(attribute chains such as ``np.linalg`` start at a plain name) or lists it in
``__all__``.  Standard-library ``ast`` only, so no linter is needed.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "greenball"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in kept)


def test_scanner_flags_unused_and_keeps_used_names():
    source = ("from math import comb, pi\nimport numpy as np\n"
              "from .x import Exported\n__all__ = ['Exported']\n"
              "def f():\n    return np.sqrt(pi)\n")
    assert unused_imports(source) == [(1, "comb")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line} imports {name}"
                                 for line, name in unused)


def local_imports(source):
    """(line, module) of every import statement inside a function body,
    nested functions included: a module's dependencies belong at its top."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Import):
                    found.update((sub.lineno, a.name) for a in sub.names)
                elif isinstance(sub, ast.ImportFrom):
                    found.add((sub.lineno, "." * sub.level
                               + (sub.module or "")))
    return sorted(found)


def test_local_import_scanner():
    source = ("import math\nfrom .a import b\n"
              "def f():\n    from .spectrum import g\n"
              "    def inner():\n        import json\n"
              "    return g\n"
              "class C:\n    def m(self):\n        from . import x\n"
              "        return x\n")
    assert local_imports(source) == [(4, ".spectrum"), (6, "json"),
                                     (10, ".")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_local_imports(path):
    found = local_imports(path.read_text())
    assert not found, ", ".join(f"{path.name}:{line} imports {module} "
                                "inside a function" for line, module in found)


def private_definitions(tree):
    """Module-level functions, classes and constants named _x (not dunder)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def referenced_names(tree):
    """Names read anywhere: plain loads, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def dead_private_helpers(sources):
    """(module, name) of private module-level definitions that no module of
    `sources` (a name -> source text mapping) references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    return sorted((mod, name) for mod, tree in trees.items()
                  for name in private_definitions(tree) if name not in used)


def test_dead_helper_scanner():
    sources = {"a": ("_LIMIT = 3\n_spare = 1\n__all__ = []\n"
                     "def _used():\n    return _LIMIT\n"
                     "def _dead():\n    pass\nclass _Gone:\n    pass\n"),
               "b": "from .a import _used\nprint(_used())\n"}
    assert dead_private_helpers(sources) == [
        ("a", "_Gone"), ("a", "_dead"), ("a", "_spare")]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    dead = dead_private_helpers(sources)
    assert not dead, ", ".join(f"{mod} defines {name}, which no module "
                               "references" for mod, name in dead)


def foreign_private_reads(source):
    """(line, 'owner._name') for every read of a non-dunder _name attribute
    on anything but `self` or `cls`: one object reaching into another's
    internals."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            owner = ast.unparse(node.value)
            out.append((node.lineno, f"{owner}.{node.attr}"))
    return sorted(out)


def test_foreign_private_read_scanner():
    source = ("class A:\n    def f(self, other):\n"
              "        self._x = other._y\n        other._z = 1\n"
              "        return (cls._w, self._v, other.__dict__,\n"
              "                mod._helper())\n")
    assert foreign_private_reads(source) == [(3, "other._y"),
                                             (6, "mod._helper")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_foreign_private_reads(path):
    reads = foreign_private_reads(path.read_text())
    assert not reads, ", ".join(f"{path.name}:{line} reads {name}"
                                for line, name in reads)


ROOT = SRC.parent.parent


def uncalled_public_names(exported, sources, texts):
    """Sorted names of `exported` that no module of `sources` (a name ->
    Python source mapping, the re-exporting package __init__ left out)
    references and no plain text of `texts` mentions as a word."""
    used = set().union(*(referenced_names(ast.parse(text))
                         for text in sources.values()))
    return sorted(name for name in exported if name not in used
                  and not any(re.search(rf"\b{re.escape(name)}\b", text)
                              for text in texts))


def public_definitions(tree):
    """Module-level functions and classes not named _x: methods, nested
    definitions and constants are left out."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_uncalled_public_name_scanner():
    exported = {"Model", "helper", "spare", "documented"}
    sources = {"a.py": ("def helper():\n    pass\ndef spare():\n    pass\n"
                        "class Model:\n    pass\n"),
               "demo.py": "import pkg\nprint(pkg.helper(), pkg.Model)\n"}
    readme = "Call `documented(x)`; spares are not spare_parts."
    assert uncalled_public_names(exported, sources, [readme]) == ["spare"]
    # a public definition outside __all__ needs a caller too
    module = ("LIMIT = 3\ndef entry():\n    return _inner()\n"
              "def _inner():\n    pass\nclass Frame:\n"
              "    def method(self):\n        pass\n"
              "def only_tested():\n    pass\n")
    defined = public_definitions(ast.parse(module))
    assert defined == {"entry", "Frame", "only_tested"}
    sources = {"b.py": module, "demo.py": "from b import entry, Frame\n"}
    assert uncalled_public_names(defined, sources, []) == ["only_tested"]


def test_public_names_have_a_caller():
    """Every name in the package's __all__, and every public module-level
    function and class of the package, is used by the package itself, a
    demo, the benchmark or the README; a name only the tests call is dead
    public code."""
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    exported = _exported(ast.parse((SRC / "__init__.py").read_text()))
    exported |= set().union(*(public_definitions(ast.parse(p.read_text()))
                              for p in files))
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    sources = {str(p): p.read_text() for p in files}
    texts = [(ROOT / "README.md").read_text()]
    uncalled = uncalled_public_names(exported, sources, texts)
    assert not uncalled, ", ".join(f"{name} is public but has no caller "
                                   "outside the tests" for name in uncalled)


def defaulted_parameters(tree):
    """(call name, function, parameter, default, position) of every
    parameter with a default in the functions and methods of `tree`, nested
    ones included.  A method is called by its own name with `self` or `cls`
    bound (none for a staticmethod), an __init__ by its class's name; the
    position is None for a keyword-only parameter."""
    out = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                bound = 1 if owner and not static else 0
                tail = positional[len(positional) - len(args.defaults):]
                defaults = list(zip(tail, args.defaults)) + [
                    (a.arg, d) for a, d in zip(args.kwonlyargs,
                                               args.kw_defaults)
                    if d is not None]
                call = owner if node.name == "__init__" else node.name
                for name, default in defaults:
                    pos = (positional.index(name) - bound
                           if name in positional else None)
                    out.append((call, node.name, name, ast.dump(default), pos))
                visit(node.body, None)

    visit(tree.body, None)
    return out


def passed_values(trees):
    """{call name: set of (position or keyword, ast.dump of the value)} over
    every call in `trees`, the call named by its plain name or last
    attribute; `*args` from position p is recorded as ("*", p) and
    `**kwargs` as ("**", None)."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            seen = out.setdefault(name, set())
            for pos, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    seen.add(("*", pos))
                    break
                seen.add((pos, ast.dump(arg)))
            seen.update((k.arg, ast.dump(k.value)) if k.arg else ("**", None)
                        for k in node.keywords)
    return out


def never_set_defaults(sources, callers):
    """Sorted (module, function, parameter) of the defaulted parameters in
    `sources` (a name -> source mapping) that no call in `callers` (source
    texts) passes a value other than the default, by position or keyword."""
    passed = passed_values([ast.parse(text) for text in callers])
    found = []
    for mod, text in sources.items():
        for call, func, name, default, pos in defaulted_parameters(
                ast.parse(text)):
            seen = passed.get(call, set())
            if not any(key == "**" or (key == "*" and pos is not None
                                       and pos >= value)
                       or (key in (name, pos) and value != default)
                       for key, value in seen):
                found.append((mod, func, name))
    return sorted(found)


def test_never_set_default_scanner():
    sources = {"a.py": ("def f(x, tol=1e-6, sign=-1, *, mode='a'):\n"
                        "    def inner(k=0):\n        pass\n"
                        "class C:\n    def __init__(self, k=2):\n        pass\n"
                        "    def m(self, h=1.0, n=3):\n        pass\n"
                        "    @staticmethod\n    def s(a=1, b=2):\n"
                        "        pass\n")}
    callers = ["f(1, 1e-6, sign=-1, mode='b')\nC(3).m(2.0)\n"
               "inner(**opts)\nC.s(*args)\n"]
    assert never_set_defaults(sources, callers) == [
        ("a.py", "f", "sign"), ("a.py", "f", "tol"), ("a.py", "m", "n")]


def test_every_default_is_set_somewhere():
    """A default that no call in the package, the tests or the demos ever
    changes is a constant in disguise: it belongs in the body."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text() for folder in ("src", "tests", "demos")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    found = never_set_defaults(sources, callers)
    assert not found, ", ".join(f"{mod}: nothing sets {func}({name}=...)"
                                for mod, func, name in found)


def call_arguments(trees):
    """{call name: [(positional count, keyword names), ...]}, one entry per
    call in `trees`, the call named by its plain name or last attribute; a
    call with `*args` or `**kwargs` has a positional count of None, since
    what it passes is unknown."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                unknown = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                out.setdefault(name, []).append(
                    (None if unknown else len(node.args),
                     {k.arg for k in node.keywords}))
    return out


def always_passed_defaults(sources, callers):
    """Sorted (module, function, parameter) of the defaulted parameters of
    private (`_name`) functions in `sources` that every call in `callers`
    (source texts), and at least one, passes by position or keyword."""
    calls = call_arguments([ast.parse(text) for text in callers])
    found = []
    for mod, text in sources.items():
        for call, func, name, _, pos in defaulted_parameters(ast.parse(text)):
            seen = calls.get(call, [])
            if (func.startswith("_") and not func.startswith("__") and seen
                    and all(count is not None and (
                        name in keys or (pos is not None and pos < count))
                            for count, keys in seen)):
                found.append((mod, func, name))
    return sorted(found)


def test_always_passed_default_scanner():
    sources = {"a.py": ("def _scaled(x, w=1.0):\n    return w * x\n"
                        "def _loose(x, k=2):\n    return k * x\n"
                        "def _spread(x, k=2):\n    return k * x\n"
                        "def public(x, tol=1e-6):\n    return x\n"
                        "class C:\n    def _m(self, h=1.0):\n"
                        "        return h\n")}
    callers = ["_scaled(1, 2.0)\n_scaled(3, w=1.0)\n_loose(1)\n"
               "_loose(2, 3)\n_spread(*args)\n_spread(1, 3)\n"
               "public(1, 1e-3)\nC()._m(2.0)\n"]
    assert always_passed_defaults(sources, callers) == [
        ("a.py", "_m", "h"), ("a.py", "_scaled", "w")]


def test_private_defaults_are_left_to_some_call():
    """A default of a private helper that every call overrides is never
    used: the parameter should be required."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text() for folder in ("src", "tests", "demos")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    found = always_passed_defaults(sources, callers)
    assert not found, ", ".join(f"{mod}: every call passes {func}({name}=...)"
                                for mod, func, name in found)


#: functions on the Nystrom path, whose dense linear algebra must run in
#: scipy's BLAS/LAPACK: numpy's wheel bundles a second OpenBLAS, and its
#: thread pool spins against scipy's for the cores.  Kernel assembly and
#: both integrators are on it
NYSTROM_PATH = {
    "spectrum.py": ("nystrom_eigenvalues", "_nystrom_matrix",
                    "_interpolated_seed", "_orthonormalize", "_ritz_top",
                    "_guard"),
    "quadrature.py": ("integrate_full", "integrate_rows", "integrate_cols"),
    "kernels.py": ("integrate_kernel", "center_kernel", "condition_kernel",
                   "apply_weight"),
}


def numpy_blas_uses(source, functions):
    """(line, function, what) of every `@` (or `@=`) and every `np.linalg`
    attribute in the named module-level functions, nested code included."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            for sub in ast.walk(node):
                if isinstance(getattr(sub, "op", None), ast.MatMult):
                    found.append((sub.lineno, node.name, "@"))
                elif (isinstance(sub, ast.Attribute) and sub.attr == "linalg"
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id in ("np", "numpy")):
                    found.append((sub.lineno, node.name, "np.linalg"))
    return sorted(found)


def test_numpy_blas_scanner():
    source = ("import numpy as np\n"
              "def f(a, b):\n    c = a @ b\n    c @= b\n"
              "    def g():\n        return np.linalg.qr(a)[0]\n"
              "    return g, np.einsum('ij->j', c)\n"
              "def other(a):\n    return a @ np.linalg.inv(a)\n")
    assert numpy_blas_uses(source, {"f"}) == [(3, "f", "@"), (4, "f", "@"),
                                              (6, "f", "np.linalg")]


@pytest.mark.parametrize("module", sorted(NYSTROM_PATH))
def test_nystrom_path_uses_one_blas(module):
    source = (SRC / module).read_text()
    functions = NYSTROM_PATH[module]
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert set(functions) <= defined, f"{module} lacks {functions}"
    found = numpy_blas_uses(source, functions)
    assert not found, ", ".join(f"{module}:{line} {name} uses {what}"
                                for line, name, what in found)


def imported_names(source):
    """Every name a module binds by `import` or `from ... import`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_cli_builds_no_boundary_value_problems():
    """The family -> boundary-value problem map lives in the library
    (`catalog_problem`); the command line only asks for it."""
    found = imported_names((SRC / "cli.py").read_text()) & {
        "BoundaryCondition", "BVProblem", "OperatorSpec"}
    assert not found, f"cli.py imports {sorted(found)}"


def imports_from(source, module):
    """Lines of a module's imports that read the sibling module `module`:
    `from .module import ...`, `from . import module`, `import ...module`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[-1],
                     *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        if module in names:
            lines.append(node.lineno)
    return lines


def test_smallball_computes_no_spectra():
    """The probability layer consumes spectra (`SpectrumResult`s and
    eigenvalue arrays) and never computes them."""
    found = imports_from((SRC / "smallball.py").read_text(), "spectrum")
    assert not found, f"smallball.py imports spectrum at lines {found}"


def test_import_leaves_scipy_special_out():
    """`import greenball` loads no scipy.special: the one Gamma ratio it
    needs is math.gamma, and the module costs import time on every call."""
    code = ("import sys, greenball; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"
