"""Which functions in ``src/repro`` store an attribute of a given name — the
AST walk behind the "a plain attribute only its owner writes" tests
(``Simulator.now``, ``FlowTable.version``)."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent


def _writers(path: pathlib.Path, attr: str) -> set[str]:
    writers = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ):
            writers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return writers


def attribute_writers(attr: str) -> dict[str, set[str]]:
    """``{module path under src/repro: function names}`` for every function
    that assigns, augments or deletes ``<anything>.<attr>`` ('<module>' for
    code outside any function)."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        writers = _writers(path, attr)
        if writers:
            found[path.relative_to(SRC).as_posix()] = writers
    return found
