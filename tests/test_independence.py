"""Static checks over the package sources, parsed with ast.

The oracle never trusts the script: following every intra-package import
from the certification side (verify, cohomology) never reaches the
construction side (mutation, splitcalc), certification never names the
center geometry that sizes the construction, and the construction never
reaches the oracle (cohomology, kernels) or its verdicts (verify).  The
arithmetic is exact: no module but the CLI, which times its own output,
uses floats or rationals.  No module but the CLI reads the environment, so
what the oracle does, disk I/O included, follows from its arguments alone.
Only excol.kernels, the oracle's counting lane, imports numpy.
And nothing is dead: each error type the package defines is raised or
caught in it, each one it raises is expected by a test, and every top-level
function, class or constant, and every method or property of such a class,
is named somewhere in the package or the benchmark scripts (perfbench/)
outside its own body.
"""

import ast
from collections import Counter
from pathlib import Path

import excol

PACKAGE_DIR = Path(excol.__file__).parent
TESTS_DIR = Path(__file__).parent
PERFBENCH_DIR = TESTS_DIR.parent / "perfbench"


def _package_imports(path):
    """Names of the excol modules that one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and node.module and node.module.startswith("excol."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("excol."):
                    found.add(alias.name.split(".")[1])
    return found


def _import_graph():
    return {p.stem: _package_imports(p) for p in PACKAGE_DIR.glob("*.py")}


def _reachable(graph, start):
    seen, todo = set(), [start]
    while todo:
        mod = todo.pop()
        for dep in graph.get(mod, ()):
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_oracle_never_imports_construction():
    graph = _import_graph()
    # the parse must see real edges, or the check below would pass vacuously
    assert "splitcalc" in graph["mutation"]
    assert "cohomology" in graph["verify"]
    for oracle in ("verify", "cohomology"):
        reached = _reachable(graph, oracle)
        assert "intlinalg" in reached
        assert not reached & {"mutation", "splitcalc"}, (oracle, sorted(reached))


def test_certification_reads_only_the_fan():
    """verify takes the expected length from the fan's cones, not from the
    center geometry that sizes the construction's seed."""
    used = _names_used(ast.parse((PACKAGE_DIR / "verify.py").read_text()))
    # the parse must see the fan's cones, or the check below would pass vacuously
    assert used["max_cones"]
    assert not used["CenterGeometry"] and not used["geometry"]


def test_construction_never_imports_oracle():
    graph = _import_graph()
    assert "kernels" in graph["cohomology"]
    for construction in ("mutation", "splitcalc"):
        reached = _reachable(graph, construction)
        assert "fan" in reached
        assert not reached & {"cohomology", "kernels", "verify"}, (
            construction,
            sorted(reached),
        )


def _inexact_arithmetic(path):
    """(line, what) for every float or rational construct in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            mods = []
        for mod in mods:
            if mod.split(".")[0] in ("fractions", "decimal"):
                found.append((node.lineno, f"import {mod}"))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division /"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append((node.lineno, "float() call"))
    return found


def test_no_floats_or_rationals():
    sources = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "cli.py")
    assert {"cohomology", "intlinalg", "kernels"} <= {p.stem for p in sources}
    offenders = {p.name: _inexact_arithmetic(p) for p in sources}
    assert not any(offenders.values()), {k: v for k, v in offenders.items() if v}


def _imports_numpy(path):
    """Whether one source file imports numpy, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods = [node.module]
        else:
            continue
        if any(mod.split(".")[0] == "numpy" for mod in mods):
            return True
    return False


def test_only_the_kernels_import_numpy():
    """numpy loads with excol.kernels, which excol.cohomology imports on the
    first class a process computes; test_cli checks that at run time."""
    assert {p.stem for p in PACKAGE_DIR.glob("*.py") if _imports_numpy(p)} == {"kernels"}


def _environment_reads(path):
    """(line, what) for every os.environ or os.getenv in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                (node.lineno, f"from os import {alias.name}")
                for alias in node.names
                if alias.name in ("environ", "getenv")
            ]
    return found


def test_only_the_cli_reads_the_environment():
    # the parse must see the CLI's read, or the check below would pass vacuously
    assert _environment_reads(PACKAGE_DIR / "cli.py")
    sources = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "cli.py")
    offenders = {p.name: _environment_reads(p) for p in sources}
    assert not any(offenders.values()), {k: v for k, v in offenders.items() if v}


def _error_classes():
    """Names of the ExcolError subclasses defined in errors.py."""
    tree = ast.parse((PACKAGE_DIR / "errors.py").read_text())
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    found = set()
    while True:
        more = {n for n, b in bases.items() if b & (found | {"ExcolError"})} - found
        if not more:
            return found
        found |= more


def _exception_names(node):
    """Plain names in a raise target or an except clause."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _exception_names(elt)}
    return {node.id} if isinstance(node, ast.Name) else set()


def _raised_and_caught(paths):
    raised, caught = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _exception_names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _exception_names(node.type)
    return raised, caught


def _expected_by_tests():
    """Names passed to pytest.raises anywhere in the test suite."""
    found = set()
    for path in TESTS_DIR.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises"
                and node.args
            ):
                found |= _exception_names(node.args[0])
    return found


def test_no_dead_error_types():
    errors = _error_classes()
    assert {"InvalidSpec", "MutationError", "HypothesisFailed"} <= errors
    raised, caught = _raised_and_caught(
        p for p in PACKAGE_DIR.glob("*.py") if p.name != "errors.py"
    )
    assert not errors - raised - caught, sorted(errors - raised - caught)
    # a raise no input can reach is still raised; only a test that provokes
    # it shows it is live
    untested = (errors & raised) - _expected_by_tests()
    assert not untested, sorted(untested)


def _names_used(node):
    """How often each name is used under node: loads, attributes, imports."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name] += 1
    return used


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node) of the top-level functions, classes and constants, and
    of the methods and properties of those classes, except dunders, which
    Python reads by protocol."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from (
                (target.id, node)
                for target in node.targets
                if isinstance(target, ast.Name) and not _dunder(target.id)
            )
        if isinstance(node, ast.ClassDef):
            yield from (
                (sub.name, sub)
                for sub in node.body
                if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name)
            )


def test_no_unreferenced_definitions():
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE_DIR.glob("*.py")}
    # the benchmark scripts read names the package does not (kernels.BACKEND)
    bench = [ast.parse(p.read_text()) for p in PERFBENCH_DIR.glob("*.py")]
    assert bench
    used = sum((_names_used(tree) for tree in [*trees.values(), *bench]), Counter())
    defined = [
        (f"{module}:{name}", name, node)
        for module, tree in trees.items()
        for name, node in _definitions(tree)
    ]
    assert len(defined) > 50
    # the parse must see class members and constants, or they would pass
    # vacuously
    assert {"fan.py:canonical_class", "kernels.py:BACKEND"} <= {key for key, _, _ in defined}
    # uses inside a definition's own body (recursion, or the constant's own
    # assignment) do not keep it alive
    unused = sorted(
        key for key, name, node in defined if used[name] - _names_used(node)[name] <= 0
    )
    assert not unused, unused
