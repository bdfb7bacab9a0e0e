"""One L3 planner and rule builder: every wiring path goes through them.

An AST walk of ``src/repro``: the L3 app builds its ``Match`` and
``FlowEntry`` objects in one method — the rule builder that
``wire_all_pairs``, reactive ``wire_pair`` and the reboot re-install all
call — and the per-pair helpers it replaced (``_plan_pair``, ``_hop_rules``,
``Controller.ports_along``) are gone from the source tree.  Their bodies
live on as the test oracle in ``tests/sdn/prewire_oracle.py``.
"""

import ast
import pathlib

import repro
from repro.sdn import Controller, L3ShortestPathApp

SRC = pathlib.Path(repro.__file__).parent
REMOVED = ("_plan_pair", "_hop_rules", "ports_along")


def _constructor_sites(file: pathlib.Path, names: tuple[str, ...]) -> dict:
    """``{name: {Class.function}}`` for every ``name(...)`` call in a file."""
    sites: dict[str, set[str]] = {name: set() for name in names}

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in sites
        ):
            sites[node.func.id].add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(file.read_text(encoding="utf-8")), ())
    return sites


def test_l3_rules_are_built_in_one_method():
    sites = _constructor_sites(SRC / "sdn" / "l3app.py", ("Match", "FlowEntry"))
    assert sites == {
        "Match": {"L3ShortestPathApp._rules"},
        "FlowEntry": {"L3ShortestPathApp._rules"},
    }


def test_the_per_pair_helpers_are_gone_from_src():
    found = []
    for file in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            name = (
                node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                else node.attr if isinstance(node, ast.Attribute)
                else None
            )
            if name in REMOVED:
                found.append((file.relative_to(SRC).as_posix(), name))
    assert found == []
    for name in REMOVED:
        assert not hasattr(Controller, name) and not hasattr(L3ShortestPathApp, name)
