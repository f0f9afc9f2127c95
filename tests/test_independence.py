"""The oracle never trusts the script: its import graph proves it.

Parses the package sources with ast and follows every intra-package import
from the certification side (verify, cohomology). None of them may reach the
construction side (mutation, splitcalc).
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
