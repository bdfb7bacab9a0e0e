"""One install path through the Mimic Controller: ``Attempt``.

Establish, repair / rotate, resync and teardown each drive one
``Attempt`` (push, settle, then commit or retract).  The controller keeps
no hand-rolled copy of those steps, and an AST walk of ``src/repro/core``
finds every bundle send (``._send(``) and every cookie removal
(``remove_by_cookie(``) inside ``Attempt`` — the one place a fence or a
per-bundle check has to live.
"""

import ast
import pathlib

import repro.core
from repro.core import controller

CORE = pathlib.Path(repro.core.__file__).parent

#: the steps ``Attempt`` owns, and the calls only its methods may make
FOLDED = ("_push", "_settle", "_retract", "_orphaned")
SEAM_CALLS = ("_send", "remove_by_cookie")


def _seam_call_sites() -> dict[str, set[tuple[str, str]]]:
    """``{call: {(module under core, Class.function)}}`` for every
    ``<anything>.<call>(...)`` in ``src/repro/core``."""
    sites: dict[str, set[tuple[str, str]]] = {name: set() for name in SEAM_CALLS}

    def visit(node: ast.AST, path: str, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in sites
        ):
            sites[node.func.attr].add((path, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for file in sorted(CORE.rglob("*.py")):
        visit(ast.parse(file.read_text(encoding="utf-8")), file.name, ())
    return sites


def test_the_controller_keeps_no_hand_rolled_install_step():
    assert [name for name in FOLDED if hasattr(controller.MimicController, name)] == []
    attempt = getattr(controller, "Attempt", object)
    assert {"push", "settle", "commit", "retract", "orphaned"} <= set(vars(attempt))


def test_only_attempt_sends_bundles_or_removes_cookies():
    assert _seam_call_sites() == {
        "_send": {("controller.py", "Attempt.push")},
        "remove_by_cookie": {("controller.py", "Attempt.retract")},
    }
