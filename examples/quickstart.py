#!/usr/bin/env python3
"""Quickstart: anonymous communication with MIC in five steps.

Builds the paper's evaluation fabric (a 4-ary fat-tree: 20 switches, 16
hosts), starts the Mimic Controller, and sends a message from Alice (h1) to
Bob (h16) through a mimic channel.  Along the way it prints what the
network actually saw — fake addresses everywhere except the first and last
segments.

Run:  python examples/quickstart.py
"""

from repro.core import deploy_mic
from repro.net import fat_tree
from repro.obs import JourneyEvent


def main() -> None:
    # 1. Build the fabric and the control plane; the journey recorder keeps
    #    every packet's hops (what each switch emitted, header included).
    dep = deploy_mic(fat_tree(4), seed=42, journey=True)
    net, mic = dep.net, dep.mic
    print(f"fabric: {net.topo!r}")

    # 2. Bob runs a MIC-aware server on port 80.
    server = dep.server("h16", 80)

    # 3. Alice gets a MIC endpoint (the paper's user-end module).
    alice = dep.endpoint("h1")

    transcript = {}

    def alice_side():
        # 4. One call establishes the mimic channel: encrypted request to
        #    the MC, per-m-flow entry addresses back, TCP through the fabric.
        stream = yield from alice.connect("h16", service_port=80, n_mns=3)
        grant_info = (
            f"channel {stream.channel_id} via entry "
            f"{stream.conns[0].remote_ip}:{stream.conns[0].remote_port}"
        )
        transcript["grant"] = grant_info
        stream.send(b"hello from alice")
        transcript["reply"] = yield from stream.recv_exactly(17)

    def bob_side():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(16)
        # Bob sees a mimic source address, not Alice's.
        transcript["bob_saw"] = str(stream.conns[0].remote_ip)
        stream.send(b"hello from bob!!!")

    net.sim.process(alice_side())
    net.sim.process(bob_side())
    net.run(until=10.0)

    # 5. Inspect the outcome.
    plan = next(iter(mic.channels.values())).flows[0]
    print(f"alice connected:   {transcript['grant']}")
    print(f"walk:              {' -> '.join(plan.walk)}")
    print(f"mimic nodes:       {', '.join(plan.mn_names)}")
    print(f"bob saw source:    {transcript['bob_saw']} "
          f"(alice is {net.host('h1').ip})")
    print(f"alice got reply:   {transcript['reply'].decode()}")

    real_pair = {str(net.host("h1").ip), str(net.host("h16").ip)}
    egress = [
        JourneyEvent.from_row(row)
        for row in dep.journey.rows() if row[1] == "switch.egress"
    ]
    leaks = sorted({ev.where for ev in egress if set(ev["header"][:2]) == real_pair})
    print(f"switches that saw the real (alice, bob) pair together: {leaks or 'none'}")


if __name__ == "__main__":
    main()
