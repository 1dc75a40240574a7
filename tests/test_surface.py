"""Every public function, class and method of the package has a caller in ``src/``.

So does every private module-level function or class. A name that only
the tests use belongs in the tests (see ``oracles.py``). Exports listed
in ``ordmotif.__all__`` and the CLI's ``main`` count as used.
"""

import ast
from pathlib import Path

import ordmotif

SRC = Path(ordmotif.__file__).parent


def test_public_definitions_are_used_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set(ordmotif.__all__) | {"main"}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
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
    unused = [qualified for qualified, name in definitions if name not in used]
    assert unused == []
