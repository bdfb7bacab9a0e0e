"""The reference classifier ``FlowTable.lookup_linear`` was, kept as the
test oracle the indexed pipeline is held to."""

from typing import Optional

from repro.net import FlowEntry, FlowTable, Packet


def lookup_linear(table: FlowTable, packet: Packet, in_port: int) -> Optional[FlowEntry]:
    """Priority-ordered linear scan: the first entry, highest priority
    first and first-installed first within a priority, whose match accepts
    the packet — the semantics every tier of ``FlowTable.lookup`` keeps."""
    for entry in table.iter_entries():
        if entry.match.matches(packet, in_port):
            return entry
    return None
