"""Dead-code guard: every definition in the package is used by the package.

A top-level function or class, or a public method, whose name never occurs
as a name or attribute anywhere under src/homgeom is reachable only from
tests or from the package exports.  Such code either carries a fact no
check runs, or is a second copy of one; the guard fails on it unless it is
listed below with its reason.

The same holds for knobs: a keyword-only parameter whose name is passed as
a keyword at no call under src/homgeom is set only by tests, so every
branch it opens is one the package never takes.  A function that forwards
its own parameter under the same name (f(x=x)) sets nothing, so that call
does not count; a call f(**mapping) counts for every keyword-only
parameter of each function named f.
"""

import ast
import textwrap
from pathlib import Path

import homgeom

PACKAGE = Path(homgeom.__file__).parent

ALLOWED = {
    "UniPoly.degree": "the degree is part of the polynomial type's interface",
}

_FAULT_INJECTION = (
    "the only way a test can make a case fail to settle its pair, "
    "the imported cases a and d included"
)
ALLOWED_KNOBS = {
    "eliminate.disabled_cases": _FAULT_INJECTION,
    "search.disabled_cases": _FAULT_INJECTION,
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(trees):
    """Top-level functions and classes, and public methods as Class.method."""
    out = []
    for filename, tree in trees.items():
        if filename == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((filename, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out.append((filename, f"{node.name}.{item.name}", item.name))
    return out


def _used_names(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _knobs(trees):
    """Keyword-only parameters of every function and method, as function.parameter."""
    out = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                out += [(filename, f"{node.name}.{a.arg}", a.arg) for a in node.args.kwonlyargs]
    return out


def _passed_keywords(trees):
    """Names of the keyword-only parameters some package call sets."""
    knobs_of = {}
    for _, qualified, name in _knobs(trees):
        knobs_of.setdefault(qualified.split(".")[0], set()).add(name)
    passed = set()

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            params = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            for kw in node.keywords:
                if kw.arg is None:
                    passed.update(knobs_of.get(callee, ()))
                elif not (
                    kw.arg in params and isinstance(kw.value, ast.Name) and kw.value.id == kw.arg
                ):
                    passed.add(kw.arg)
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    for tree in trees.values():
        visit(tree, set())
    return passed


def test_every_definition_is_used_in_the_package():
    trees = _trees()
    used = _used_names(trees)
    unused = [
        f"{filename}: {qualified}"
        for filename, qualified, name in _definitions(trees)
        if name not in used and qualified not in ALLOWED
    ]
    assert not unused, "defined but never used under src/homgeom: " + ", ".join(unused)


def test_every_keyword_only_parameter_is_passed_in_the_package():
    trees = _trees()
    passed = _passed_keywords(trees)
    unset = [
        f"{filename}: {qualified}"
        for filename, qualified, name in _knobs(trees)
        if name not in passed and qualified not in ALLOWED_KNOBS
    ]
    assert not unset, "keyword-only parameters no package call passes: " + ", ".join(unset)


def test_forwarded_keywords_do_not_count_and_mappings_do():
    source = """
        def inner(*, k=0, j=0): ...
        def outer(*, k=0): return inner(k=k)
        def caller(sizes): return outer(**sizes)
    """
    assert _passed_keywords({"m.py": ast.parse(textwrap.dedent(source))}) == {"k"}


def test_allowlist_is_current():
    # An allowed name that the package starts using, or deletes, leaves the list.
    trees = _trees()
    used = _used_names(trees)
    defined = {qualified: name for _, qualified, name in _definitions(trees)}
    stale = [q for q in ALLOWED if q not in defined or defined[q] in used]
    passed = _passed_keywords(trees)
    knobs = {qualified: name for _, qualified, name in _knobs(trees)}
    stale += [q for q in ALLOWED_KNOBS if q not in knobs or knobs[q] in passed]
    assert not stale, f"allowlist entries no longer needed: {stale}"
