"""Reference for proactive L3 wiring: one flow-mod per hop rule.

How ``L3ShortestPathApp.wire_all_pairs`` wired a fabric before it sent one
bundle per switch and before one planner and rule builder served every
wiring path: every unordered host pair planned on its own (``plan_pair``:
a fresh ``pick_path`` draw and the next cookie), its hop rules built from
``ports_along`` — a ``topo.kind`` test and a ``Network.port`` lookup per
node, a new ``Output`` per rule — and each rule sent as its own one-entry
``Controller.install_batch``.  The functions are the app's and the
controller's former methods, ``self`` renamed.  The bundled pre-wire must
leave the same path draws, cookies, entry ids and per-table rule order
behind.
"""

from repro.net.flowtable import FlowEntry, Match, Output


def ports_along(ctrl, path):
    """(switch, out_port) pairs for the switch hops of a node path."""
    hops: list[tuple[str, int]] = []
    for i, node in enumerate(path[:-1]):
        if ctrl.network.topo.kind(node) != "switch":
            continue
        hops.append((node, ctrl.network.port(node, path[i + 1])))
    return hops


def plan_pair(l3, src_name, dst_name):
    """Pick a host pair's path and cookie and record both directions on
    ``l3``.  Returns ``(cookie, path)``."""
    ctrl = l3.controller
    net = ctrl.network
    path = ctrl.view.pick_path(src_name, dst_name, ctrl.rng)
    l3.pair_paths[(src_name, dst_name)] = path
    l3.pair_paths[(dst_name, src_name)] = list(reversed(path))
    l3._next_cookie += 1
    cookie = l3._next_cookie
    l3._pair_cookies[(src_name, dst_name)] = cookie
    l3._pair_cookies[(dst_name, src_name)] = cookie
    src_ip, dst_ip = net.host(src_name).ip, net.host(dst_name).ip
    l3._installed_pairs.add((src_ip, dst_ip))
    l3._installed_pairs.add((dst_ip, src_ip))
    return cookie, path


def hop_rules(l3, src_name, dst_name, path, cookie):
    """``(switch, rule)`` for every hop of a pair's path: the forward
    direction's exact ⟨ip_src, ip_dst⟩ rules, then the reverse's."""
    ctrl = l3.controller
    src_ip = ctrl.network.host(src_name).ip
    dst_ip = ctrl.network.host(dst_name).ip
    rules = []
    for hop_path, match in (
        (path, Match(ip_src=src_ip, ip_dst=dst_ip)),
        (list(reversed(path)), Match(ip_src=dst_ip, ip_dst=src_ip)),
    ):
        for sw_name, out_port in ports_along(ctrl, hop_path):
            rules.append((sw_name, FlowEntry(
                match, [Output(out_port)], priority=l3.priority, cookie=cookie
            )))
    return rules


def wire_pair_per_rule(l3, src_name, dst_name) -> list:
    """Plan one host pair and send each of its hop rules as its own
    one-entry bundle; returns one install event per rule."""
    cookie, path = plan_pair(l3, src_name, dst_name)
    return [
        l3._send(sw_name, [rule])
        for sw_name, rule in hop_rules(l3, src_name, dst_name, path, cookie)
    ]


def wire_all_pairs_per_rule(l3) -> list:
    """Wire every host pair of ``l3``'s fabric rule by rule; returns one
    install event per rule."""
    hosts = l3.controller.network.topo.hosts()
    events = []
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            events += wire_pair_per_rule(l3, a, b)
    return events


def table_rows(net, with_ids: bool = True) -> dict:
    """``{switch: [(entry_id, seq, match, actions, priority, cookie), ...]}``
    in each table's rank order; ``with_ids=False`` leaves ``entry_id`` out."""
    return {
        sw.name: [
            ((e.entry_id,) if with_ids else ())
            + (e.seq, e.match, tuple(e.actions), e.priority, e.cookie)
            for e in sw.table.iter_entries()
        ]
        for sw in net.switches()
    }
