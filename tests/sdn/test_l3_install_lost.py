"""A reactive L3 install that runs out of retries must not wedge its pair.

The flow-mod to the source's edge switch is lost for three seconds, longer
than the retry budget (~2.04 s), so the pair's wiring fails.  The app must
then retract the rules that did land, forget the pair and drop the packets
it held, so the next punt once the loss window has closed wires the pair
afresh.
"""

from repro.core import deploy_mic
from repro.faults import FaultSchedule
from repro.net import fat_tree
from repro.transport import TcpStack


def _lossy_edge_deployment():
    faults = FaultSchedule(seed=1)
    faults.rule_install_loss(at_s=0, duration_s=3.0, loss_prob=1.0, switches=("p0e0",))
    return deploy_mic(fat_tree(4), seed=0, faults=faults)


def test_pair_whose_install_ran_out_of_retries_is_wired_again_later():
    dep = _lossy_edge_deployment()
    net = dep.net
    server = TcpStack(net.host("h16"))
    for port in (80, 81):
        server.listen(port)
    client = TcpStack(net.host("h1"))
    dst = net.host("h16").ip

    client.connect(dst, 80)  # its SYN is held, then dropped with the wiring
    dep.run(until=4.0)
    second = client.connect(dst, 81)
    dep.run(until=60.0)

    assert second.triggered and second.ok
    assert (net.host("h1").ip, dst) not in dep.l3._pending


def test_failed_wiring_is_retracted_along_its_path():
    """After the failed wiring settles, no switch keeps a rule under its
    cookie, and both directions are forgotten."""
    dep = _lossy_edge_deployment()
    net = dep.net
    l3 = dep.l3
    h1 = net.host("h1")
    h1.send_packet(h1.make_packet(net.host("h16").ip, dport=80, payload_size=64))
    dep.run(until=0.01)
    cookie = l3._pair_cookies[("h1", "h16")]
    path = l3.pair_paths[("h1", "h16")]
    dep.run(until=3.5)

    assert ("h1", "h16") not in l3.pair_paths
    assert ("h16", "h1") not in l3.pair_paths
    assert (h1.ip, net.host("h16").ip) not in l3._pending
    for node in path[1:-1]:
        table = net.switch(node).table
        assert not [e for e in table.iter_entries() if e.cookie == cookie], node
    assert dep.ctrl.flow_mods_lost >= 9  # the whole budget, and the removal's retries
