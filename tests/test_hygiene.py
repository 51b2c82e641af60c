"""Source hygiene of the hyperlab package: every imported name is used
(in the test modules too), every module-level constant is read, every
private module-level function or class is used, every parameter is read,
every dataclass field is read, every module-level function or class is
reached from the CLI, the benchmark or the acceptance suite, every module
compiles with warnings treated as errors, and the runtime loads no scipy."""

import ast
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperlab"
MODULES = sorted(SRC.glob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"] + TEST_MODULES,
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    # __init__.py is exempt: its imports are the package's re-exports
    assert _unused_imports(ast.parse(path.read_text())) == []


def _module_constants(tree):
    """UPPER_CASE names bound by assignments at module level."""
    names = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name) and CONSTANT.fullmatch(n.id):
                    names[n.id] = node.lineno
    return names


def test_module_constants_are_read():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    reads = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute):
                reads.add(n.attr)
    assert [f"{name}: {const} (line {line})" for name, tree in trees.items()
            for const, line in _module_constants(tree).items()
            if const not in reads] == []


def _loaded_names(nodes):
    """Names loaded as x, read as .x, or imported by name, in the nodes."""
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.ImportFrom):
                yield from (alias.name for alias in n.names)


def test_private_definitions_are_used():
    # a private helper that nothing loads is a leftover twin of a live one
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    loads = set(_loaded_names(trees.values()))
    assert [f"{name}: {node.name} (line {node.lineno})"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and node.name not in loads] == []


def _unread_parameters(tree):
    """Parameters (self exempt) of the functions and lambdas of a module
    that their body never loads."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        a = fn.args
        params = (a.posonlyargs + a.args + a.kwonlyargs
                  + [p for p in (a.vararg, a.kwarg) if p is not None])
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        loads = {n.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{getattr(fn, 'name', 'lambda')}: {p.arg} (line {fn.lineno})"
                for p in params if p.arg != "self" and p.arg not in loads]
    return out


def test_parameters_are_read():
    # a parameter that nothing reads is a knob that does nothing
    assert [f"{p.name}: {entry}" for p in MODULES
            for entry in _unread_parameters(ast.parse(p.read_text()))] == []


def _dataclass_fields(tree):
    """(class, field, line) of every annotated field of the dataclasses of a
    module."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list):
            yield from ((cls.name, stmt.target.id, stmt.lineno)
                        for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign))


def _attribute_reads(tree):
    """Attribute names loaded as x.name or getattr(x, "name")."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
              and n.func.id == "getattr" and len(n.args) > 1
              and isinstance(n.args[1], ast.Constant)):
            yield n.args[1].value


def test_dataclass_fields_are_read():
    """A field that nothing reads is a second copy of data or a dead result.

    Blind spot: reads are matched by field name alone, so a field whose
    name several dataclasses share passes when any one of them is read
    (an unread MetricModel.kg_mass passed on KGConfig.kg_mass, and an unread
    ConeSphereReport.area on LeafSlice.area).
    """
    readers = [p for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    reads = {name for p in readers
             for name in _attribute_reads(ast.parse(p.read_text()))}
    assert [f"{p.name}: {cls}.{name} (line {line})" for p in MODULES
            for cls, name, line in _dataclass_fields(ast.parse(p.read_text()))
            if name not in reads] == []


def test_definitions_are_reached():
    """Every module-level function and class of the package is reached from
    the CLI, the benchmark, the acceptance suite or a module's own
    module-level code.

    The walk starts from the names that cli.py, perfbench/*.py,
    tests/test_acceptance.py, tests/conftest.py and the module-level
    statements of every module load (a module's own imports and __init__'s
    re-exports reach nothing), then adds the names loaded by the body of
    each definition it reaches, until nothing new is reached.

    Blind spot: definitions are matched by name alone, so a definition
    passes when any name it shares is reached: another module's definition,
    a method, or an attribute of the same name (an unread nullgeom.energy
    would pass on kgflat.energy).
    """
    roots = ([SRC / "cli.py"] + sorted((ROOT / "perfbench").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py",
                ROOT / "tests" / "conftest.py"])
    reached = set(_loaded_names(ast.parse(p.read_text()) for p in roots))
    defs = []
    for p in MODULES:
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((p.name, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached.update(_loaded_names([node]))
    todo = defs
    while True:
        hit = [node for _, node in todo if node.name in reached]
        if not hit:
            break
        reached.update(_loaded_names(hit))
        todo = [(name, node) for name, node in todo if node not in hit]
    assert [f"{name}: {node.name} (line {node.lineno})"
            for name, node in defs if node.name not in reached] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _defaulted_parameters(tree):
    """(function, parameter, positional index or None, line) of every
    parameter with a default value; the index of a method's parameter
    counts from the first argument after self."""
    methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)
               and "staticmethod" not in map(ast.unparse, f.decorator_list)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a = fn.args
        pos = (a.posonlyargs + a.args)[1 if id(fn) in methods else 0:]
        yield from ((fn.name, p.arg, i, fn.lineno)
                    for i, p in enumerate(pos)
                    if i >= len(pos) - len(a.defaults))
        yield from ((fn.name, p.arg, None, fn.lineno)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None)


def _passed_arguments(tree):
    """(callee name, positional count, keyword names) of every call; a
    starred argument counts as every position or keyword."""
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        name = getattr(n.func, "id", getattr(n.func, "attr", None))
        npos = (float("inf") if any(isinstance(a, ast.Starred) for a in n.args)
                else len(n.args))
        kws = {k.arg for k in n.keywords}
        yield name, npos, kws


def test_parameter_defaults_are_overridden():
    # a default that no call overrides is a constant dressed as a knob
    callers = [p for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    passed = {}
    for p in callers:
        for name, npos, kws in _passed_arguments(ast.parse(p.read_text())):
            passed.setdefault(name, []).append((npos, kws))
    assert [f"{p.name}: {fn}({param}) (line {line})" for p in MODULES
            for fn, param, i, line in _defaulted_parameters(
                ast.parse(p.read_text()))
            if not any(param in kws or None in kws
                       or (i is not None and npos > i)
                       for npos, kws in passed.get(fn, ()))] == []


def test_runtime_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: importing every module and running a
    # foliate pass must not load it (it costs about 44 MB of peak RSS)
    code = (
        "import importlib, sys\n"
        f"for m in {[p.stem for p in MODULES if p.stem != '__init__']!r}:\n"
        "    importlib.import_module('hyperlab.' + m)\n"
        "from hyperlab.cli import main\n"
        f"assert main(['foliate', '--config', "
        f"{str(ROOT / 'configs' / 'glued_small.ini')!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.splitlines()[-1] == "[]"
