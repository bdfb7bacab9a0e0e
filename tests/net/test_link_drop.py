"""In-flight packet loss is never silent.

Regression test: a packet that is serializing or propagating when its link
goes down used to vanish — delivered to nobody, counted by nothing.  Every
drop path must bump ``stats.drops`` and record a ``link.drop`` row in an
attached journey recorder, so per-packet accounting stays closed.
"""

from repro.net import Network, fat_tree
from repro.obs import JourneyRecorder
from tests.journey_rows import events, in_flight_drops


def _channel(net, a="p0e0", b="p0a0"):
    return net.link_between(a, b).forward


def test_down_at_send_drop_is_counted_and_traced():
    net = Network(fat_tree(4), seed=0)
    journey = JourneyRecorder.attach(net)
    ch = _channel(net)
    ch.set_state(False)
    pkt = net.host("h1").make_packet(net.host("h2").ip, payload_size=100)
    assert ch.send(pkt) is False
    assert ch.stats.drops == 1
    drops = events(journey, "link.drop")
    assert [(ev.where, ev.uid) for ev in drops] == [(ch.name, pkt.uid)]
    assert in_flight_drops(journey) == []  # refused at the queue, never sent


def test_in_flight_drop_is_counted_traced_and_journeyed():
    net = Network(fat_tree(4), seed=0)
    journey = JourneyRecorder.attach(net)
    ch = _channel(net)
    delivered = []
    ch.dst.receive = lambda packet, port: delivered.append(packet)

    pkt = net.host("h1").make_packet(net.host("h2").ip, payload_size=1000)
    assert ch.send(pkt) is True  # accepted: the link was up at send time
    # Kill the channel while the packet is still on the wire.
    net.sim.call_later(ch.delay_s * 0.5, lambda: ch.set_state(False))
    net.run(until=ch.delay_s * 4 + 1.0)

    assert delivered == []
    assert ch.stats.drops == 1
    drops = in_flight_drops(journey)
    assert [(ev.where, ev.uid) for ev in drops] == [(ch.name, pkt.uid)]
    assert events(journey, "link.drop") == drops


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
