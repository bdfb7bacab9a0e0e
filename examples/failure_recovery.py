#!/usr/bin/env python3
"""Fabric fault tolerance: a mimic channel survives a link failure.

The MC has the global view (Sec IV-B), so when a link dies mid-transfer it
re-plans the affected m-flow over the surviving fabric — pinning the entry
and delivery addresses so neither endpoint's TCP connection notices.  The
blackout window is covered by ordinary TCP retransmission.

Run:  python examples/failure_recovery.py
"""

from repro.core import deploy_mic
from repro.net import fat_tree

PAYLOAD = bytes(range(256)) * 512  # 128 KiB


def main() -> None:
    dep = deploy_mic(fat_tree(4), seed=5)
    net, mic = dep.net, dep.mic
    server = dep.server("h16", 80)
    alice = dep.endpoint("h1")
    log = {}

    def client():
        stream = yield from alice.connect("h16", service_port=80, n_mns=3)
        plan = next(iter(mic.channels.values())).flows[0]
        log["old_walk"] = list(plan.walk)
        stream.send(PAYLOAD[: len(PAYLOAD) // 2])
        yield net.sim.timeout(0.05)

        # Disaster: an interior link of the channel's walk goes dark.
        victim = (plan.walk[2], plan.walk[3])
        log["failed_link"] = victim
        log["failed_at"] = net.sim.now
        net.set_link_state(*victim, False)

        yield net.sim.timeout(0.05)
        stream.send(PAYLOAD[len(PAYLOAD) // 2 :])

    def srv():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(len(PAYLOAD))
        log["received_at"] = net.sim.now
        log["intact"] = data == PAYLOAD

    net.sim.process(client())
    net.sim.process(srv())
    net.run(until=30.0)

    new_plan = next(iter(mic.channels.values())).flows[0]
    print(f"original walk : {' -> '.join(log['old_walk'])}")
    print(f"link failed   : {log['failed_link'][0]} <-> {log['failed_link'][1]} "
          f"at t={log['failed_at'] * 1e3:.1f} ms")
    print(f"repaired walk : {' -> '.join(new_plan.walk)}")
    print(f"repairs       : {mic.repairs_completed} "
          f"(flow re-planned by the MC, entry/delivery pinned)")
    print(f"transfer done : t={log['received_at'] * 1e3:.1f} ms, "
          f"payload intact = {log['intact']}")
    dead = set(log["failed_link"])
    assert log["intact"]
    assert mic.repairs_completed >= 1
    assert not any(
        set(edge) == dead for edge in zip(new_plan.walk, new_plan.walk[1:])
    )
    print("\nthe channel rerouted transparently; TCP never broke.")


if __name__ == "__main__":
    main()
