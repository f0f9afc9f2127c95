"""Count the code lines of Python modules: blank lines, comment lines and
docstrings do not count.

    python3 tools/code_lines.py TREE [OTHER]

TREE and OTHER are directories, such as this checkout's src/excol and the
same directory of another commit's export (git archive REV src | tar -x -C
DIR, then DIR/src/excol).  With one tree, prints each module's count and the
total.  With two, prints each module's count in both trees and the
difference, OTHER minus TREE; a module missing from a tree counts 0 there.

A line counts when a token other than a comment starts, ends or runs through
it (tokenize), so each line of a statement split over several lines counts.
A docstring is the string that opens a module, class or function body (ast);
its lines count only for the other tokens they hold.
"""

import argparse
import ast
import sys
import tokenize
from io import StringIO
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in one module's source text."""
    docstrings = set()  # the rows of every docstring
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
    rows = set()
    for tok in tokenize.generate_tokens(StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def tree_counts(tree):
    """{module path relative to tree: code lines} for every .py file below
    tree."""
    root = Path(tree)
    if not root.is_dir():
        raise SystemExit(f"code_lines: {tree} is not a directory")
    return {
        path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="a directory of Python modules")
    parser.add_argument("other", nargs="?", help="a second directory to compare with")
    args = parser.parse_args(argv)
    counts = [tree_counts(args.tree)]
    if args.other:
        counts.append(tree_counts(args.other))
    modules = sorted(set().union(*counts))
    width = max(map(len, modules + ["module"]))
    rows = [(m, [c.get(m, 0) for c in counts]) for m in modules]
    rows.append(("total", [sum(c.values()) for c in counts]))
    if args.other:
        print(f"{'module':<{width}}  {'tree':>6}  {'other':>6}  {'diff':>6}")
        for name, (a, b) in rows:
            print(f"{name:<{width}}  {a:>6}  {b:>6}  {b - a:>+6}")
    else:
        for name, (a,) in rows:
            print(f"{name:<{width}}  {a:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
