"""Tests for the tcpdump-style trace formatter."""

from repro.core import deploy_mic
from repro.net.tracefmt import capture_at, format_capture, format_record
from repro.sim import TraceLog, TraceRecord


def rec(category, node="s1", **detail):
    return TraceRecord(time=0.0128, category=category, node=node, detail=detail)


class TestFormatRecord:
    def test_switch_fwd_with_mpls(self):
        line = format_record(rec(
            "switch.fwd", in_port=1, out_port=2, src_ip="10.0.0.1",
            dst_ip="10.0.0.2", mpls=0x2F41B203, size=74,
        ))
        assert "s1[1>2]" in line
        assert "10.0.0.1 > 10.0.0.2" in line
        assert "mpls 0x2f41b203" in line
        assert "len 74" in line

    def test_switch_fwd_without_mpls(self):
        line = format_record(rec(
            "switch.fwd", in_port=1, out_port=2, src_ip="10.0.0.1",
            dst_ip="10.0.0.2", mpls=None, size=60,
        ))
        assert "mpls" not in line

    def test_miss_and_drop(self):
        miss = format_record(rec("switch.miss", src_ip="a", dst_ip="b"))
        assert "MISS" in miss and "punt" in miss
        drop = format_record(rec("link.drop", node="a[1]->b[2]", size=1500))
        assert "DROP" in drop

    def test_non_packet_record_skipped(self):
        assert format_record(rec("mic.establish", channel_id=1)) is None

    def test_timestamp_scales(self):
        early = format_record(rec("link.drop", size=1))
        assert "ms" in early
        late = TraceRecord(time=2.5, category="link.drop", node="x",
                           detail={"size": 1})
        assert "2.500000s" in format_record(late)


class TestCapture:
    def test_live_capture_from_channel(self):
        dep = deploy_mic(seed=8)
        trace = dep.net.attach_trace()
        server = dep.server("h16", 80)
        alice = dep.endpoint("h1")
        done = {}

        def client():
            stream = yield from alice.connect("h16", service_port=80)
            stream.send(b"x" * 100)
            done["ok"] = True

        def srv():
            stream = yield server.accept()
            yield from stream.recv_exactly(100)

        dep.sim.process(client())
        dep.sim.process(srv())
        dep.run_for(10.0)
        plan = next(iter(dep.mic.channels.values())).flows[0]
        mn = plan.mn_names[0]
        text = capture_at(trace, mn, limit=5)
        assert text.count("\n") <= 4
        assert mn in text

    def test_filter_by_category(self):
        log = TraceLog()
        log.emit(0.001, "switch.fwd", "s1",
                 ("in_port", "out_port", "src_ip", "dst_ip", "mpls", "size"),
                 1, 2, "a", "b", None, 1)
        log.emit(0.002, "link.drop", "l1", ("size",), 2)
        only_drops = format_capture(log, categories={"link.drop"})
        assert "DROP" in only_drops and "s1" not in only_drops

    def test_limit(self):
        log = TraceLog()
        for i in range(10):
            log.emit(0.001 * i, "link.drop", "l1", ("size",), i)
        assert len(format_capture(log, limit=3).splitlines()) == 3
