"""One scripted run that makes every recorder write every shape it has.

linear(3) with a multicast group (one decoy bucket) at s2 and an in-place
rewrite at s3, driven through a delivery with an injected divergence, a TTL
death, a table miss, a refused port, a tail drop, an in-flight drop, a
``link.down`` and a switch crash — every ``JOURNEY_EVENTS`` kind, plus a
flow-mod, a refused port and a dead-chassis drop that the switches, hosts
and links count themselves.
``tests/data/recording_golden.json`` holds what the eager-record
implementation read back from this run; the journey and flight tests
compare today's reads against it.

Regenerate (only when a recorded value is *meant* to change)::

    PYTHONPATH=src python -m tests.recording_scenario
"""

import dataclasses
import hashlib
import json
import pathlib

from repro.net import (
    DEFAULT_PARAMS,
    FlowEntry,
    Group,
    GroupEntry,
    Match,
    Network,
    Output,
    SetField,
    linear,
)
from repro.obs import FlightRecorder, JourneyRecorder, journeys_to_json

GOLDEN = pathlib.Path(__file__).parent / "data" / "recording_golden.json"

#: small enough that a burst of five 1 KB packets overflows h1's NIC queue
QUEUE_BYTES = 4096


#: the scenario's flight recorder: ``queue_depth`` armed low so a healthy
#: link.tx behind a backlog dumps too
FLIGHT = {"capacity": 8, "queue_threshold_bytes": 1024, "max_dumps": 8}


def run_scenario(
    attach=JourneyRecorder.attach,
    flight_cls=FlightRecorder,
    flight_kwargs=FLIGHT,
    **journey_kwargs,
):
    """Run the script; returns ``(net, recorder, flight)``.

    ``attach`` builds the journey recorder from ``journey_kwargs`` and a
    ``flight_cls(**flight_kwargs)`` flight recorder (none when
    ``flight_kwargs`` is None); the defaults are what the golden holds."""
    params = dataclasses.replace(DEFAULT_PARAMS, link_queue_bytes=QUEUE_BYTES)
    net = Network(linear(3, hosts_per_switch=1), params=params, seed=4)
    h1, h2, h3 = net.host("h1"), net.host("h2"), net.host("h3")
    s1, s2, s3 = net.switch("s1"), net.switch("s2"), net.switch("s3")
    s1.table.install(FlowEntry(Match(ip_dst=h3.ip), [Output(net.port("s1", "s2"))]))
    s2.table.install_group(
        GroupEntry(
            group_id=1,
            buckets=[
                [SetField("ip_src", h2.ip), Output(net.port("s2", "s3"))],
                [Output(net.port("s2", "h2"))],  # decoy: dies at h2's NIC
            ],
        )
    )
    s2.table.install(FlowEntry(Match(ip_dst=h3.ip), [Group(1)]))
    # the last rule arrives as a flow-mod
    s3.install_many_later([
        FlowEntry(
            Match(ip_dst=h3.ip),
            [SetField("sport", 4321), Output(net.port("s3", "h3"))],
        )
    ])
    h3.bind("tcp", 80, lambda host, p: None)

    flight = None if flight_kwargs is None else flight_cls(**flight_kwargs)
    rec = attach(net, flight=flight, **journey_kwargs)
    rec.expect("s2", (str(h1.ip), str(h3.ip), 1, 80, None),
               (str(h1.ip), str(h3.ip), 1, 2, None))
    net.run()

    def send(dst, sport, dport=80, size=64, ttl=None):
        pkt = h1.make_packet(dst.ip, sport=sport, dport=dport, payload_size=size)
        if ttl is not None:
            pkt.ttl = ttl
        h1.send_packet(pkt)

    send(h3, 1)             # delivered; rewrite, group copy, injected divergence
    send(h3, 2, ttl=1)      # TTL death at s1
    send(h2, 3)             # table miss at s1 (no controller: punt goes nowhere)
    send(h3, 4, dport=81)   # delivered to a port nobody bound: refused
    net.run()
    for sport in range(10, 15):  # burst: queue waits, then tail drops
        send(h3, sport, size=1000)
    net.run()
    send(h3, 20)            # in flight on s2->s3 when the link goes down
    net.run(until=net.sim.now + 29e-6)
    net.set_link_state("s2", "s3", False)
    net.run()
    net.set_link_state("s2", "s3", True)
    net.set_switch_state("s1", False)
    send(h3, 21)            # dies at the crashed chassis
    net.run()
    return net, rec, flight


def read_back(net, rec, flight):
    """Everything the readers return for the run, as a JSON-ready document.

    Detail dicts are written as ``[key, value]`` pair lists so key *order*
    is part of the comparison.
    """
    def pairs(detail):
        return [[k, v] for k, v in detail.items()]

    def event(e):
        return [e.time_s, e.kind, e.where, e.uid, e.content_tag, pairs(e.detail)]

    journeys = rec.journeys_by_content_tag()
    return json.loads(json.dumps({
        "journeys": {
            str(tag): {
                "events": [event(e) for e in j.events],
                "uids": sorted(j.uids()),
                "origin": j.origin(),
                "delivered_to": j.delivered_to(),
                "parent_map": sorted(j.parent_map().items()),
                "delivered_uids": sorted(j.delivered_uids()),
                "path": j.path(),
                "queue_waits": j.queue_waits(),
                "rewrite_chain": j.rewrite_chain(),
                "total_latency_s": j.total_latency_s(),
            }
            for tag, j in journeys.items()
        },
        "rings": {
            where: [event(e) for e in flight.ring(where)]
            for where in flight.locations()
        },
        "dumps": [
            {
                "trigger": d.trigger,
                "time_s": d.time_s,
                "cause": event(d.cause),
                "retained": {w: len(ring) for w, ring in d.events.items()},
            }
            for d in flight.dumps
        ],
        "dumps_suppressed": flight.dumps_suppressed,
        "events_recorded": rec.events_recorded,
        # the exported document (every FlightDump.to_dict() included), key
        # order and all
        "dump_json_sha256": hashlib.sha256(
            json.dumps(journeys_to_json(rec, flight)).encode()
        ).hexdigest(),
    }))


def _render(value, indent=0):
    """JSON text with every container that fits on one line kept on one."""
    flat = json.dumps(value)
    if len(flat) + indent <= 200 or not isinstance(value, (dict, list)) or not value:
        return flat
    pad = " " * (indent + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {_render(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    items = [pad + _render(v, indent + 1) for v in value]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


if __name__ == "__main__":
    GOLDEN.write_text(_render(read_back(*run_scenario())) + "\n")
    print(f"wrote {GOLDEN}")
