"""What the Mimic Controller left behind that no live flow owns.

``orphan_mic_state(dep)`` is the "or leave no trace" half of the install
path's contract as a test oracle: it scans every switch table for MIC /
decoy-drop priority rules and groups whose cookie no live flow owns, and
the MC's books (registry owners, live flow ids, committed intents, booked
source ports) for entries with no channel behind them.  Empty dict ==
nothing leaked.
"""

from repro.core.controller import DECOY_DROP_PRIORITY, MIC_PRIORITY


def orphan_mic_state(dep):
    """``{kind: [leaked items]}`` — empty when every trace has an owner."""
    mic = dep.mic
    live = {
        plan.cookie: f"ch{cid}/c{plan.cookie}"
        for cid, channel in mic.channels.items()
        for plan in channel.flows
    }
    live_flow_ids = sum(len(ch.flows) for ch in mic.channels.values())
    live_sports = {
        (channel.initiator, plan.entry.sport)
        for channel in mic.channels.values() for plan in channel.flows
    }
    rules, groups = [], []
    for sw in dep.net.switches():
        for prio in (MIC_PRIORITY, DECOY_DROP_PRIORITY):
            rules += [
                (sw.name, e.describe()) for e in sw.table.entries_at(prio)
                if e.cookie not in live
            ]
        groups += [
            (sw.name, gid) for gid, g in sw.table.groups.items()
            if g.cookie not in live
        ]
    found = {
        "rules": rules,
        "groups": groups,
        "owners": sorted(set(mic.registry.owners()) - set(live.values())),
        "flow_ids": [(mic.flow_ids.live_count, live_flow_ids)]
        if mic.flow_ids.live_count != live_flow_ids else [],
        "compiled": sorted(set(mic.compiled) - set(live)),
        "sports": sorted({
            (host, port) for host, ports in mic._used_sports.items()
            for port in ports
        } - live_sports),
    }
    return {kind: items for kind, items in found.items() if items}
