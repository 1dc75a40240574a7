"""Every public function, class and method of the package has a caller in ``src/``.

So does every private module-level function or class, and every
module-level constant has a reader, so that a constant a deleted path
left behind fails too. A name that only the tests use belongs in the
tests (see ``oracles.py``). Exports listed in ``ordmotif.__all__`` and
the CLI's ``main`` count as used; ``__all__`` and ``__version__`` need
no reader.
"""

import ast
from pathlib import Path

import ordmotif

SRC = Path(ordmotif.__file__).parent
UNREAD_DUNDERS = {"__all__", "__version__"}


def _constants(node):
    """Names a module-level assignment binds, bar the dunders."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id not in UNREAD_DUNDERS]


def test_public_definitions_are_used_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set(ordmotif.__all__) | {"main"}
    for tree in trees.values():
        for node in ast.walk(tree):
            # Assigning a name is no use of it; only reading it is.
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    definitions = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (f"{module}:{node.name}.{member.name}", member.name)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                )
            definitions.extend((f"{module}:{name}", name) for name in _constants(node))
    unused = [qualified for qualified, name in definitions if name not in used]
    assert unused == []
