"""Every function, class and method in the package is named somewhere else in it.

A definition counts as used when its name appears in `src/rocinfer`
outside the definition itself: as a name, an attribute, an imported
name or a string (`hasattr(x, "as_dict")`). Names listed in an
`__all__` and dunders are exempt, since callers outside the package or
the language itself use them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rocinfer"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
    assert unused == []
