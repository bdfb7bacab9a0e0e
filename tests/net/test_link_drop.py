"""In-flight packet loss is never silent.

Regression test: a packet that is serializing or propagating when its link
goes down used to vanish — delivered to nobody, counted by nothing.  Every
drop path must bump ``stats.drops``, emit a ``link.drop`` record into an
attached trace log, and notify an attached journey recorder so per-packet
accounting stays closed.
"""

from repro.net import Network, fat_tree


class _JourneySpy:
    """Minimal stand-in for a JourneyRecorder's link-drop hook."""

    def __init__(self):
        self.drops = []

    def on_link_drop(self, channel, packet, backlog):
        self.drops.append((channel.name, packet.uid))

    def __getattr__(self, name):
        if name.startswith("on_"):  # ignore the other recorder hooks
            return lambda *args, **kwargs: None
        raise AttributeError(name)


def _channel(net, a="p0e0", b="p0a0"):
    return net.link_between(a, b).forward


def test_down_at_send_drop_is_counted_and_traced():
    net = Network(fat_tree(4), seed=0)
    net.attach_trace()
    ch = _channel(net)
    spy = _JourneySpy()
    ch.journey = spy
    ch.set_state(False)
    pkt = net.host("h1").make_packet(net.host("h2").ip, payload_size=100)
    assert ch.send(pkt) is False
    assert ch.stats.drops == 1
    drops = [r for r in net.trace.records if r.category == "link.drop"]
    assert len(drops) == 1
    assert drops[0].detail["uid"] == pkt.uid
    assert spy.drops == [(ch.name, pkt.uid)]


def test_in_flight_drop_is_counted_traced_and_journeyed():
    net = Network(fat_tree(4), seed=0)
    net.attach_trace()
    ch = _channel(net)
    spy = _JourneySpy()
    ch.journey = spy
    delivered = []
    ch.dst.receive = lambda packet, port: delivered.append(packet)

    pkt = net.host("h1").make_packet(net.host("h2").ip, payload_size=1000)
    assert ch.send(pkt) is True  # accepted: the link was up at send time
    # Kill the channel while the packet is still on the wire.
    net.sim.call_later(ch.delay_s * 0.5, lambda: ch.set_state(False))
    net.run(until=ch.delay_s * 4 + 1.0)

    assert delivered == []
    assert ch.stats.drops == 1
    drops = [r for r in net.trace.records if r.category == "link.drop"]
    assert len(drops) == 1
    assert drops[0].detail["in_flight"] is True
    assert drops[0].detail["uid"] == pkt.uid
    assert spy.drops == [(ch.name, pkt.uid)]


def test_up_link_still_delivers():
    net = Network(fat_tree(4), seed=0)
    ch = _channel(net)
    delivered = []
    ch.dst.receive = lambda packet, port: delivered.append(packet)
    pkt = net.host("h1").make_packet(net.host("h2").ip, payload_size=1000)
    assert ch.send(pkt) is True
    net.run(until=1.0)
    assert delivered == [pkt]
    assert ch.stats.drops == 0
