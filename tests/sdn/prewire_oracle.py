"""Reference for proactive L3 wiring: one flow-mod per hop rule.

How ``L3ShortestPathApp.wire_all_pairs`` wired a fabric before it sent one
bundle per switch: every unordered host pair through ``wire_pair``, each hop
rule its own one-entry ``Controller.install_batch``.  The bundled pre-wire must leave the
same path draws, cookies, entry ids and per-table rule order behind.
"""


def wire_all_pairs_per_rule(l3) -> list:
    """Wire every host pair of ``l3``'s fabric rule by rule; returns one
    install event per rule."""
    hosts = l3.controller.network.topo.hosts()
    events = []
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            events += l3.wire_pair(a, b)
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
