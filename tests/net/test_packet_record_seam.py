"""One recorder per packet event: the journey, never the trace log.

An AST walk of ``src/repro``: every ``trace.emit`` names a literal category
outside the journey's event kinds, so no data-plane fact is recorded twice.
Channels carry no trace log at all (``repro/net/link.py`` never mentions
it), and the per-packet trace renderer ``repro.net.tracefmt`` is gone; a
packet reads back as journey rows (``format_hop_table``,
``python -m repro.obs journey``, the Perfetto export).
"""

import ast
import importlib.util
import pathlib

import repro
from repro.obs import journey_event_kinds

SRC = pathlib.Path(repro.__file__).parent


def _emit_categories():
    """``(file, line, literal categories)`` per ``<x>.trace.emit(...)`` call."""
    for file in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "trace"
            ):
                continue
            category = node.args[1]
            yield file.relative_to(SRC).as_posix(), node.lineno, {
                c.value for c in ast.walk(category)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }


def test_no_trace_category_is_a_journey_kind():
    sites = list(_emit_categories())
    assert len(sites) >= 10  # not vacuous: the controllers and fabric emit
    kinds = journey_event_kinds()
    for path, line, categories in sites:
        assert categories, f"{path}:{line} has no literal category"
        assert not categories & kinds, f"{path}:{line} records {categories & kinds}"


def test_channels_carry_no_trace_log():
    assert "trace" not in (SRC / "net" / "link.py").read_text(encoding="utf-8")


def test_the_per_packet_trace_renderer_is_gone():
    assert importlib.util.find_spec("repro.net.tracefmt") is None
