"""Every function, class and method in the package is named somewhere else in it.

A definition counts as used when its name appears in `src/rocinfer`
outside the definition itself: as a name, an attribute, an imported
name or a string (`hasattr(x, "as_dict")`). Names listed in an
`__all__` and dunders are exempt, since callers outside the package or
the language itself use them. `_READ_OUTSIDE` names, each by its place
in the package, the members that only a reader outside the package
keeps; an entry must still be unused in the package and still be read
by its reader, so it lapses with its reason.

Since an import counts as a use there, a stale import could keep a
deleted helper's name alive; so every name a module imports must also
be used in that module as a name, unless its `__all__` lists it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rocinfer"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ROOT = SRC.parents[1]

# module:class:member -> (its reader outside the package, the text it reads it by)
_READ_OUTSIDE = {
    # the benchmark tracer sums the saved draws' rows for the log-likelihood ESS
    "mixtures.py:_SavedDraws:loglik": ("perfbench/spans.py", "out.loglik"),
}


def _names_used(node, inside: frozenset, uses: list):
    """Append (name, enclosing definition ids) for every name node mentions."""
    if isinstance(node, _DEFS):
        inside = inside | {id(node)}
    if isinstance(node, ast.Name):
        uses.append((node.id, inside))
    elif isinstance(node, ast.Attribute):
        uses.append((node.attr, inside))
    elif isinstance(node, ast.alias):
        uses.append((node.name.rsplit(".", 1)[-1], inside))
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        uses.append((node.value, inside))
    for child in ast.iter_child_nodes(node):
        _names_used(child, inside, uses)


def _exported(tree) -> set:
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def test_every_definition_is_named_elsewhere():
    defs, uses, exported = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported |= _exported(tree)
        _names_used(tree, frozenset(), uses)
        for node in tree.body:
            if isinstance(node, _DEFS):
                defs.append((path.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(path.name + ":" + node.name, sub) for sub in node.body
                         if isinstance(sub, _DEFS)]
    assert defs
    unused = [
        "%s:%s" % (where, node.name) for where, node in defs
        if node.name not in exported and not node.name.startswith("__")
        and not any(name == node.name and id(node) not in inside for name, inside in uses)
    ]
    assert sorted(unused) == sorted(_READ_OUTSIDE)
    for reader, text in _READ_OUTSIDE.values():
        assert text in (ROOT / reader).read_text(encoding="utf-8"), reader


def test_every_import_is_used():
    """A name a module imports is used in that module, or listed in its `__all__`."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [(alias.asname or alias.name).split(".", 1)[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%s" % (path.name, name) for name in imported
                   if name not in used | _exported(tree)]
    assert unused == []
