"""Source hygiene of the hyperlab package: every imported name is used
(in the test modules too), every module-level constant is read, every
private module-level function or class is used, every parameter is read,
every dataclass field is read, every module-level function or class is
reached from the CLI, the benchmark or the acceptance suite, every module
compiles with warnings treated as errors, the runtime loads no scipy,
every call the benchmark makes into the package binds to its signature,
every private name that a docstring or comment cites still exists, and the
CLI's subcommands return their tables for main alone to write."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import tokenize
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


def test_annulus_table_built_lazily():
    # the glued annulus table (metric._annulus_table) is set-up work, which
    # the benchmark times in setup_s: importing every module and evaluating
    # the metric build none, the first right-hand side call with a lane in
    # the annulus builds one for its model, and later calls reuse it
    code = (
        "import importlib\n"
        "import numpy as np\n"
        f"for m in {[p.stem for p in MODULES if p.stem != '__init__']!r}:\n"
        "    importlib.import_module('hyperlab.' + m)\n"
        "from hyperlab import geodesic, metric\n"
        "info = metric._annulus_table.cache_info\n"
        "models = [metric.MetricModel.glued(0.01), "
        "metric.MetricModel.glued(0.05)]\n"
        "for model in models:\n"
        "    for level in (0, 1, 2):\n"
        "        metric.metric_at(model, [0.0, 0.0, 1.5, 0.0], level)\n"
        "assert info().misses == 0, info()\n"
        "for n, model in enumerate(models, 1):\n"
        "    for width in (8, 38, 8):\n"
        "        y = np.zeros((2, width))\n"
        "        y[:, 1], y[:, 4] = (0.5, 1.5), 1.0\n"
        "        geodesic._make_rhs(model, width == 38)(y)\n"
        "        assert info().misses == n and info().currsize == n, info()\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def _chain(node):
    """The names of an attribute chain a.b.c as [a, b, c]; [] for any other
    expression."""
    names = []
    while isinstance(node, ast.Attribute):
        names.insert(0, node.attr)
        node = node.value
    return [node.id] + names if isinstance(node, ast.Name) else []


def _benchmark_calls(tree):
    """(line, module, attribute path, positional count, keyword names) of
    every call that a perfbench module makes into the package through its
    imported namespace hl: hl.<module>.<name>..., or a local name bound to
    hl.<module>.  A starred argument counts as no position."""
    modules = {p.stem for p in MODULES}
    alias = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name):
            chain = _chain(n.value)
            if chain[-2:-1] == ["hl"] and chain[-1] in modules:
                alias[n.targets[0].id] = chain[-1]
    for n in ast.walk(tree):
        chain = _chain(n.func) if isinstance(n, ast.Call) else []
        at = chain.index("hl") if "hl" in chain else -1
        if 0 <= at < len(chain) - 2 and chain[at + 1] in modules:
            module, path = chain[at + 1], chain[at + 2:]
        elif chain[:1] and chain[0] in alias and len(chain) > 1:
            module, path = alias[chain[0]], chain[1:]
        else:
            continue
        npos = sum(not isinstance(a, ast.Starred) for a in n.args)
        yield n.lineno, module, path, npos, [k.arg for k in n.keywords
                                             if k.arg is not None]


def test_benchmark_calls_bind_to_signatures():
    """perfbench/ is frozen while the package changes under it: every call
    it makes into the package binds to the callee's current signature (its
    positional count and keyword names), and every argument that a tracer
    hook reads (tracer._arg, by keyword, else by position) is a parameter
    of the hooked function, at the position read unless no call of the
    package or the benchmark passes that many positional arguments.  The
    tracer counts payload rays by integrate_rays' sixth and seventh
    parameters, with_jacobi and with_k; it reads them at positions 6 and 7
    (0-based, one past each), which no call reaches."""
    widest = {}         # the most positional arguments passed, by callee
    for p in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob(
            "*.py")):
        for name, n, _ in _passed_arguments(ast.parse(p.read_text())):
            widest[name] = max(widest.get(name, 0), n)
    bad, seen = [], set()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        for line, module, path, npos, kws in _benchmark_calls(
                ast.parse(p.read_text())):
            fn = importlib.import_module(f"hyperlab.{module}")
            for name in path:
                fn = getattr(fn, name)
            seen.add(f"{module}.{'.'.join(path)}")
            try:
                inspect.signature(fn).bind(*range(npos), **dict.fromkeys(kws))
            except TypeError as err:
                bad.append(f"{p.name}:{line} {module}.{'.'.join(path)}: {err}")
    assert {"geodesic.integrate_rays", "geodesic.fan_build",
            "mass.mass_of_leaf", "cli.main"} <= seen
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    hooks = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and _chain(n.targets[0]) == ["_HOOKS"])
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for key, value in zip(hooks.keys, hooks.values):
        module, name = key.value.split(".")
        params = list(inspect.signature(getattr(
            importlib.import_module(f"hyperlab.{module}"), name)).parameters)
        before = value.elts[0]
        if not isinstance(before, ast.Name):
            continue
        for n in ast.walk(defs[before.id]):
            if isinstance(n, ast.Call) and _chain(n.func) == ["_arg"]:
                i, arg = (a.value for a in n.args[2:4])
                if arg not in params or (params[i:i + 1] != [arg]
                                         and widest.get(name, 0) > i):
                    bad.append(f"tracer.py:{n.lineno} {key} reads {arg} at "
                               f"position {i}, which is {params[i:i + 1]}")
    params = inspect.signature(importlib.import_module(
        "hyperlab.geodesic").integrate_rays).parameters
    assert list(params)[5:7] == ["with_jacobi", "with_k"]
    assert bad == []


def _prose(path):
    """The docstrings and comments of a module, as (line, text) pairs."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string


# a private name, word-initial or after a dot, with the word before the dot;
# not a subscript (R_abcd, KN(h, k)_abcd) or a suffix pattern (*_scale)
CITED = re.compile(r"(?<![\w.)*])(?:(\w+)\.)?(_\w*[A-Za-z0-9])")


def test_cited_private_names_exist():
    # a docstring or comment that cites a private helper by name, as _name
    # or module._name, must not outlive it: module._name must be an
    # attribute of that package module, any other _name an identifier
    # somewhere in the package
    names = set()
    for path in MODULES:
        for n in ast.walk(ast.parse(path.read_text())):
            names.update(v for v in (getattr(n, "id", None),
                                     getattr(n, "name", None),
                                     getattr(n, "attr", None),
                                     getattr(n, "arg", None))
                         if isinstance(v, str))
    mods = {p.stem: importlib.import_module(f"hyperlab.{p.stem}")
            for p in MODULES if p.stem != "__init__"}
    stale = []
    for path in MODULES:
        for line, text in _prose(path):
            for mod, name in CITED.findall(text):
                ok = (hasattr(mods[mod], name) if mod in mods
                      else name in names)
                if not ok:
                    stale.append(f"{path.name} (line {line}): "
                                 f"{mod + '.' if mod else ''}{name}")
    assert stale == []


WRITERS = ("write_csv", "write_meta", "write_svg")


def test_main_alone_writes_the_tables():
    # each subcommand is a function of the run configuration that returns
    # its tables; main alone writes every CSV, sidecar and plot, so one
    # output policy has one home and a failed run writes no table
    from hyperlab import cli
    assert {name: list(inspect.signature(fn).parameters)
            for name, fn in cli.COMMANDS.items()} == {
                name: ["rc"] for name in cli.COMMANDS}
    main = next(n for n in ast.parse((SRC / "cli.py").read_text()).body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    calls = [(p.name, n) for p in MODULES
             for n in ast.walk(ast.parse(p.read_text()))
             if isinstance(n, ast.Call) and getattr(
                 n.func, "id", getattr(n.func, "attr", None)) in WRITERS]
    inside = {ast.unparse(n.func) for name, n in calls if name == "cli.py"
              and main.lineno <= n.lineno <= main.end_lineno}
    assert inside == set(WRITERS)
    assert [f"{name} (line {n.lineno}): {ast.unparse(n.func)}"
            for name, n in calls if name != "cli.py"
            or not main.lineno <= n.lineno <= main.end_lineno] == []
