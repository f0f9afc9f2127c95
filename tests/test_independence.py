"""Static checks over the package sources, parsed with ast.

The oracle never trusts the script: following every intra-package import
from the certification side (verify, cohomology) never reaches the
construction side (mutation, splitcalc).  And the arithmetic is exact: no
module but the CLI, which times its own output, uses floats or rationals.
"""

import ast
from pathlib import Path

import excol

PACKAGE_DIR = Path(excol.__file__).parent


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
    assert {"cohomology", "splitcalc"} <= graph["mutation"]
    for oracle in ("verify", "cohomology"):
        reached = _reachable(graph, oracle)
        assert "intlinalg" in reached
        assert not reached & {"mutation", "splitcalc"}, (oracle, sorted(reached))


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
