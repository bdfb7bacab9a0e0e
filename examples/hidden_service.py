#!/usr/bin/env python3
"""Hidden service: receiver anonymity without rendezvous points (Sec IV-D).

A metadata server — the kind of "key node" the paper's intro warns an
attacker would locate first — registers itself with the MC under the
nickname ``metadata``.  Three clients from different pods connect by
nickname and never learn where the service runs; the service never learns
who its clients are.

Run:  python examples/hidden_service.py
"""

from repro.core import deploy_mic
from repro.net import fat_tree

SERVICE_HOST = "h11"
CLIENTS = ["h1", "h6", "h16"]


def main() -> None:
    dep = deploy_mic(fat_tree(4), seed=7)
    net = dep.net

    # The hidden receiver registers out of band with the MC (and nowhere
    # else — there is no public mapping from nickname to address).
    server = dep.hidden_service("metadata", SERVICE_HOST, 7000)
    print(f"hidden service 'metadata' running on {SERVICE_HOST} "
          f"({net.host(SERVICE_HOST).ip}) — clients will never see this\n")

    seen_by_service: list[str] = []
    replies: dict[str, bytes] = {}

    def service():
        while True:
            stream = yield server.accept()

            def serve(s):
                query = yield from s.recv_exactly(24)
                seen_by_service.append(str(s.conns[0].remote_ip))
                s.send(b"shard-map:" + query[:14])

            net.sim.process(serve(stream))

    def client(host_name: str):
        endpoint = dep.endpoint(host_name)
        # Connect by nickname: the responder's address never reaches us.
        stream = yield from endpoint.connect("metadata")
        stream.send(f"lookup /vol/{host_name:<11}".encode()[:24].ljust(24))
        replies[host_name] = yield from stream.recv_exactly(24)

    net.sim.process(service())
    for name in CLIENTS:
        net.sim.process(client(name))
    net.run(until=20.0)

    print("client results:")
    for name in CLIENTS:
        entry_ip = None
        print(f"  {name}: reply={replies[name]!r}")
    print("\nwhat the service saw as client addresses:")
    for real, observed in zip(CLIENTS, seen_by_service):
        print(f"  observed {observed:<12} (really {net.host(real).ip})")
    assert all(
        obs != str(net.host(real).ip)
        for real, obs in zip(CLIENTS, seen_by_service)
    ), "a client address leaked!"
    print("\nno client address ever reached the service; "
          "no client learned the service host.")


if __name__ == "__main__":
    main()
