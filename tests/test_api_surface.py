"""Every public function in src/ctrop has a caller outside the tests, and
so has every option it takes.

A function or method defined in src/ctrop/*.py whose name appears as a word
nowhere in src/ or bench/ outside its own definition is reached only by the
tests; it belongs in the test module that uses it.  A parameter with a
default that no call in src/ or bench/ sets selects a configuration only
the tests use; it goes, together with the code it selects."""

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


# acceptance.run(out) and cli.main(argv) let the tests substitute a stream
# and an argv for stdout and sys.argv.
ALLOWED_DEFAULTS = {"acceptance.run(out)", "cli.main(argv)"}


def _defaulted_params(tree):
    """(callee name, index of the first argument a call passes, def node)
    of every public top-level function, public method and constructor of a
    public class; a constructor is called by its class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, 0, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for f in node.body:
                if not isinstance(f, ast.FunctionDef):
                    continue
                if f.name == "__init__":
                    yield node.name, 1, f
                elif not f.name.startswith("_"):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in f.decorator_list)
                    yield f.name, 0 if static else 1, f


def _calls(path):
    """(callee name, line, call node) of every call in a file, the callee
    named by its last attribute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            fn = node.func
            name = getattr(fn, "attr", getattr(fn, "id", None))
            yield name, node.lineno, node


def _sets(call, arg, index):
    """Does the call set the parameter `arg`, found at positional `index`
    (None for keyword-only), by keyword, by position or through * or **?"""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, arg) for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_parameter_default_is_set_outside_the_tests():
    calls = [(p, name, line, node)
             for p in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
             for name, line, node in _calls(p)]
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for name, first_arg, f in _defaulted_params(ast.parse(path.read_text())):
            a = f.args
            pos = a.posonlyargs + a.args
            params = [(x.arg, i - first_arg)
                      for i, x in enumerate(pos)
                      if i >= len(pos) - len(a.defaults)]
            params += [(x.arg, None)
                       for x, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            for arg, index in params:
                label = "%s.%s(%s)" % (path.stem, name, arg)
                if label in ALLOWED_DEFAULTS:
                    continue
                if not any(_sets(node, arg, index)
                           for p, callee, line, node in calls
                           if callee == name and not (
                               p == path and f.lineno <= line <= f.end_lineno)):
                    unset.append(label)
    assert not unset, "parameter defaults only the tests set: %s" % unset
