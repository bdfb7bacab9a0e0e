"""Unit tests for the trace log."""

import ast
import gc
import json
import pathlib

from repro.sim import TraceLog, TraceRecord
from tests.recording_scenario import GOLDEN, read_back, run_scenario

SRC = pathlib.Path(__file__).parents[2] / "src" / "repro"


def test_emit_and_len():
    log = TraceLog()
    log.emit(1.0, "pkt", "s1", ("size",), 100)
    log.emit(2.0, "pkt", "s2", ("size",), 200)
    assert len(log) == 2


def test_category_filter_drops_unlisted():
    log = TraceLog(categories={"pkt"})
    log.emit(1.0, "pkt", "s1")
    log.emit(1.0, "cpu", "s1")
    assert len(log) == 1
    assert log.records[0].category == "pkt"
    assert log.enabled("pkt") and not log.enabled("cpu")


def test_by_category_and_by_node():
    log = TraceLog()
    log.emit(1.0, "pkt", "s1", ("seq",), 1)
    log.emit(2.0, "pkt", "s2", ("seq",), 2)
    log.emit(3.0, "cpu", "s1", ("seq",), 3)
    assert [r["seq"] for r in log.by_category("pkt")] == [1, 2]
    assert [r["seq"] for r in log.by_node("s1")] == [1, 3]


def test_select_matches_detail():
    log = TraceLog()
    log.emit(1.0, "pkt", "s1", ("flow", "size"), "f1", 10)
    log.emit(2.0, "pkt", "s1", ("flow", "size"), "f2", 10)
    assert [r["size"] for r in log.select(flow="f1")] == [10]
    assert list(log.select(flow="f3")) == []


def test_subscriber_sees_kept_records_only():
    log = TraceLog(categories={"pkt"})
    seen = []
    log.subscribe(seen.append)
    log.emit(1.0, "pkt", "s1")
    log.emit(1.0, "cpu", "s1")
    assert len(seen) == 1 and seen[0].category == "pkt"


def test_record_getitem_and_clear():
    log = TraceLog()
    log.emit(1.0, "pkt", "s1", ("size",), 64)
    assert log.records[0]["size"] == 64
    log.clear()
    assert len(log) == 0


# ---------------------------------------------------------------------------
# compact rows: same records out, nothing left for the collector to walk
# ---------------------------------------------------------------------------


def test_records_read_back_equal_the_eager_goldens():
    """Every category the run reaches, field for field and in key order,
    equals what the eager ``TraceRecord`` + kwargs-dict log stored for the
    same run."""
    golden = json.loads(GOLDEN.read_text())
    net, rec, flight = run_scenario()
    assert read_back(net, rec, flight)["trace"] == golden["trace"]
    # iteration, len and the filtered views are the same records
    records = net.trace.records
    assert list(net.trace) == records and len(net.trace) == len(records)
    assert all(isinstance(r, TraceRecord) for r in records)
    assert len(net.trace.by_category("link.state")) == 2
    assert net.trace.by_category("link.state") == [
        r for r in records if r.category == "link.state"
    ]
    assert net.trace.by_node("s1") == [r for r in records if r.node == "s1"] != []
    assert len(list(net.trace.select(up=False))) == 2
    assert list(net.trace.select(up=False)) == [
        r for r in records if r.detail.get("up") is False
    ]


#: the key order each category has always recorded (the kwargs order of the
#: eager log).  Packets are the journey's: the only per-packet categories
#: are the two deaths no journey kind records
TRACE_KEYS = {
    "link.state": {("up",)},
    "switch.dead_drop": {("uid",)},
    "switch.table_full": {("entry",)},
    "switch.flowmod": {("entry",)},
    "switch.state": {("up", "entries_lost")},
    "host.refused": {("uid", "proto", "dport")},
    "ctrl.packet_in_blocked": {("uid",)},
    "ctrl.packet_in": {("uid", "src_ip", "dst_ip")},
    "ctrl.link_event": {("up",)},
    "ctrl.switch_event": {("up",)},
    "ctrl.flowmod_lost": {("attempt",)},
    "mic.establish": {("channel_id", "initiator", "responder", "n_flows", "n_mns")},
    "mic.teardown": {("channel_id",)},
    "mic.rotate": {("channel_id", "flow_id", "new_walk")},
    "mic.repair": {("channel_id", "flow_id", "new_walk")},
    "mic.park": {("channel_id", "flow_id", "reason")},
    "mic.resync": {("switch", "rules")},
    "mic.shard.crash": {("shard", "channels_adopted", "repairs_rescheduled",
                         "flows_reparked")},
    "mic.shard.rejoin": {("shard",)},
}


def _guarded_emits(tree: ast.AST) -> set[int]:
    """``id`` of every ``X.trace.emit(...)`` call inside the body of an
    ``if X.trace is not None:`` test on the same receiver ``X``."""
    guarded = set()
    for node in ast.walk(tree):
        test = node.test if isinstance(node, ast.If) else None
        if not (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "trace"
            and [type(op) for op in test.ops] == [ast.IsNot]
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            continue
        receiver = ast.dump(test.left)
        for stmt in node.body:
            guarded.update(
                id(call) for call in ast.walk(stmt)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "emit"
                and ast.dump(call.func.value) == receiver
            )
    return guarded


def _emit_sites():
    """``(path, lineno, categories, keys, n_values)`` per ``trace.emit`` call;
    every call must sit behind its receiver's ``trace is not None`` test."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {
            node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith("_KEYS")
        }
        guarded = _guarded_emits(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "trace"
            ):
                continue
            assert id(node) in guarded, (
                f"{path}:{node.lineno} emits without an "
                f"`if {ast.unparse(node.func.value)} is not None` guard"
            )
            assert not node.keywords, f"{path}:{node.lineno} passes kwargs"
            _time, category, _node, keys, *values = node.args
            categories = [
                c.value for c in ast.walk(category)
                if isinstance(c, ast.Constant) and "." in str(c.value)
            ]
            assert isinstance(keys, ast.Name), (
                f"{path}:{node.lineno} keys must be a module-level constant"
            )
            yield path, node.lineno, categories, constants[keys.id], len(values)


def test_every_emit_site_passes_its_category_keys_and_as_many_values():
    seen = {}
    sites = 0
    for path, lineno, categories, keys, n_values in _emit_sites():
        sites += 1
        assert categories, f"{path}:{lineno} has no literal category"
        assert n_values == len(keys), f"{path}:{lineno} {keys} vs {n_values} values"
        for category in categories:
            seen.setdefault(category, set()).add(keys)
    assert sites == 19
    assert seen == TRACE_KEYS


def test_subscribers_get_a_trace_record_synchronously():
    log = TraceLog(categories={"pkt"})
    seen = []

    def sub(rec):
        # synchronous: the row is already stored when the subscriber runs
        seen.append((rec, len(log)))

    log.subscribe(sub)
    log.emit(1.0, "pkt", "s1", ("size", "flow"), 64, "f1")
    log.emit(2.0, "cpu", "s1", ("busy",), 0.5)  # filtered before storing
    assert seen == [
        (TraceRecord(1.0, "pkt", "s1", {"size": 64, "flow": "f1"}), 1)
    ]
    assert list(seen[0][0].detail) == ["size", "flow"]
    assert len(log) == 1 and log.records == [seen[0][0]]


def test_default_log_keeps_every_category():
    log = TraceLog()
    assert log.categories is None and log.enabled("anything")
    log.emit(0.0, "anything", "n")
    assert log.records == [TraceRecord(0.0, "anything", "n", {})]


def test_stored_records_are_invisible_to_the_collector():
    """A row is scalars, strings and a shared key tuple, so once the
    collector has looked at it, it is no longer a tracked object."""
    log = TraceLog()
    keys = ("uid", "src_ip", "mpls")
    gc.collect()
    before = len(gc.get_objects())
    for i in range(2000):
        log.emit(i * 1e-6, "pkt", "a->b", keys, i, f"10.0.0.{i % 250}", None)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(log) == 2000
    assert grown < 0.01 * len(log), f"{grown} tracked objects for {len(log)} records"
