"""One data-plane write path: every flow-mod leaves through
``Controller.install_batch``.

An AST walk of ``src/repro`` finds every attribute call of an install
method and the function it sits in.  One call per layer is allowed: the
controller's ``install_batch`` hands a bundle to ``Switch.install_many_later``,
whose ``_install_now`` alone writes ``FlowTable.install`` /
``install_group``.  The hybrid scenario's static rules are the one
controller-less exception: they are the fluid engine's fixed paths, with no
packet-in and no fault plane to go through.
"""

import ast
import pathlib

import repro
from repro.net import FlowTable, Switch
from repro.sdn import Controller

SRC = pathlib.Path(repro.__file__).parent

INSTALL_CALLS = (
    "install", "install_group", "install_many_later",
    "install_later", "install_unicast_path", "install_many",
)


def _install_call_sites() -> dict[str, set[tuple[str, str]]]:
    """``{method name: {(module path under src/repro, Class.function)}}`` for
    every ``<anything>.<method>(...)`` call of an install method."""
    sites: dict[str, set[tuple[str, str]]] = {name: set() for name in INSTALL_CALLS}

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

    for file in sorted(SRC.rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"))
        visit(tree, file.relative_to(SRC).as_posix(), ())
    return sites


SITES = _install_call_sites()


def test_only_install_batch_hands_bundles_to_a_switch():
    assert SITES["install_many_later"] == {
        ("sdn/controller.py", "Controller.install_batch"),
    }


def test_only_the_switch_writes_its_table():
    switch = {("net/switch.py", "Switch._install_now")}
    static = {("bench/hybrid_scenario.py", "_install_path_rules")}
    assert SITES["install_group"] == switch
    assert SITES["install"] == switch | static


def test_no_per_rule_install_call_is_left():
    for name in ("install_later", "install_unicast_path", "install_many"):
        assert SITES[name] == set(), name


def test_the_removed_install_methods_are_gone():
    assert not hasattr(Controller, "install")
    assert not hasattr(Controller, "install_unicast_path")
    assert not hasattr(Switch, "install_later")
    assert not hasattr(FlowTable, "install_many")
