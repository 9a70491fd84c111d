"""Every public function in src/ctrop has a caller outside the tests.

A function or method defined in src/ctrop/*.py whose name appears as a word
nowhere in src/ or bench/ outside its own definition is reached only by the
tests; it belongs in the test module that uses it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ctrop"

# ROADMAP item 9 (the superpotential beyond rank 2) decides whether it calls
# optimized_check; until then it stays in src/.
ALLOWED = {"optimized_check"}


def _public_defs(tree):
    """(name, first line, last line) of every public top-level function
    and method."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in members:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not f.name.startswith("_"):
                yield f.name, f.lineno, f.end_lineno


def test_every_public_function_has_a_caller_outside_the_tests():
    texts = {p: p.read_text().splitlines()
             for p in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for name, first, last in _public_defs(ast.parse(path.read_text())):
            word = re.compile(r"\b%s\b" % re.escape(name))
            used = any(word.search(line)
                       for p, lines in texts.items()
                       for i, line in enumerate(lines, 1)
                       if p != path or not first <= i <= last)
            if not used and name not in ALLOWED:
                unused.append("%s:%d %s" % (path.name, first, name))
    assert not unused, "public functions only the tests reach: %s" % unused
