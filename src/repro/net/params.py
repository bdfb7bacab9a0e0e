"""Calibration parameters for the simulated substrate.

All timing/cost constants live here so experiments can state their
assumptions in one place.  Defaults are calibrated to commodity data-center
gear circa the paper's testbed (1 GbE links, OVS-class software switches,
Ryu-class controller):

* 1 Gb/s links with 5 µs propagation (short intra-DC runs),
* ~2 µs per-packet switch pipeline latency; a header-rewrite (set-field)
  action adds ~100 ns — the "substantially negligible" MN overhead the paper
  claims (Sec VI-B),
* ~1 ms to install a flow rule from the controller, ~0.5 ms for a packet-in,
* ~10 µs per-packet host protocol-stack traversal.

The CPU-time constants feed the Fig 9(c) accounting: every unit of work a
node performs books seconds of CPU against it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["NetParams", "DEFAULT_PARAMS"]


@dataclass(frozen=True)
class NetParams:
    # Link characteristics
    link_bandwidth_bps: float = 1e9
    link_delay_s: float = 5e-6
    link_queue_bytes: int = 512 * 1024

    # Switch data plane
    switch_forward_delay_s: float = 2e-6
    setfield_delay_s: float = 100e-9
    switch_forward_cpu_s: float = 0.4e-6
    setfield_cpu_s: float = 0.05e-6
    #: flow-table capacity per switch (None = unbounded; commodity TCAMs
    #: hold a few thousand exact-match entries)
    switch_table_capacity: "int | None" = None

    # Host protocol stack
    host_stack_delay_s: float = 10e-6
    host_stack_cpu_s: float = 2e-6
    host_per_byte_cpu_s: float = 0.4e-9

    # Control channel (controller <-> switch)
    flow_install_delay_s: float = 1e-3
    packet_in_delay_s: float = 0.5e-3
    packet_out_delay_s: float = 0.5e-3

    # Host <-> controller request path (MIC channel establishment goes over
    # the normal network, this is the controller-side compute per request)
    controller_request_cpu_s: float = 20e-6

    def __post_init__(self) -> None:
        # The data path books CPU costs with a bare ``+=`` on the node's
        # meter, so every delay and cost (``*_delay_s`` / ``*_cpu_s``) is
        # checked here, once, rather than at every packet; NaN fails too.
        if not self.link_bandwidth_bps > 0:
            raise ValueError(
                f"link_bandwidth_bps must be > 0, got {self.link_bandwidth_bps!r}"
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith(("_delay_s", "_cpu_s")) and not value >= 0:
                raise ValueError(f"{f.name} must be >= 0, got {value!r}")

    def tx_time(self, size_bytes: int) -> float:
        """Serialization time for a packet on a link."""
        return size_bytes * 8.0 / self.link_bandwidth_bps


DEFAULT_PARAMS = NetParams()
