"""SDN controller runtime (Ryu-equivalent).

The :class:`Controller` connects to every switch in a :class:`Network`,
receives packet-ins, dispatches them to registered apps, and offers the
southbound operations apps need: flow-mod bundles (with install latency),
cookie removal and packet-out.

Apps subclass :class:`ControllerApp` and override ``on_packet_in``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..net.flowtable import FlowEntry, GroupEntry
from ..net.network import Network
from ..net.packet import Packet
from ..net.switch import Switch
from ..sim.engine import Event
from .discovery import FailureDetector, TopologyView

__all__ = ["Controller", "ControllerApp", "InstallLostError"]


class InstallLostError(RuntimeError):
    """Every retry of a flow-mod was lost before reaching the switch."""


class ControllerApp:
    """Base class for control applications."""

    name = "app"

    def attach(self, controller: "Controller") -> None:
        """Bind the app to its controller (called by register)."""
        self.controller = controller

    def on_packet_in(self, switch: Switch, packet: Packet, in_port: int) -> bool:
        """Handle a punted packet.  Return True if consumed (stops dispatch)."""
        return False

    def on_link_event(self, a: str, b: str, up: bool) -> None:
        """React to a link up/down event (view is already updated)."""

    def on_switch_event(self, name: str, up: bool) -> None:
        """React to a switch crash/reboot event (detected, not instant)."""


class Controller:
    """The network's single logical controller (assumed secure, Sec III-D).

    Failure detection and flow-mod reliability are both configurable:

    * ``detection_latency_s`` / ``heartbeat_period_s`` feed a
      :class:`~repro.sdn.discovery.FailureDetector` that delays link and
      switch state changes on their way to the control plane.  The zero
      default is synchronous and byte-identical to the old oracle wiring.
    * When a fault plane is attached (:attr:`faults`, set by
      ``FaultSchedule.attach``), every flow-mod's fate is decided at send
      time — it may be lost or delayed — and the controller drives lost
      mods again after ``ack_timeout_s`` with doubled backoff, up to
      ``max_install_retries`` retries.  Without a fault plane the install
      path is exactly the pre-fault code.
    """

    def __init__(
        self,
        network: Network,
        seed_stream: str = "controller",
        detection_latency_s: float = 0.0,
        heartbeat_period_s: Optional[float] = None,
        ack_timeout_s: float = 0.004,
        max_install_retries: int = 8,
    ):
        if not ack_timeout_s > 0:  # nan included
            raise ValueError(f"ack_timeout_s {ack_timeout_s} must be > 0")
        if not (isinstance(max_install_retries, int) and max_install_retries >= 0):
            raise ValueError(
                f"max_install_retries {max_install_retries!r} must be an int >= 0"
            )
        self.network = network
        self.sim = network.sim
        self.view = TopologyView(network.topo)
        self.apps: list[ControllerApp] = []
        self.rng = self.sim.rng(seed_stream)
        self.detector = FailureDetector(
            self.sim,
            latency_s=detection_latency_s,
            heartbeat_period_s=heartbeat_period_s,
        )
        self.ack_timeout_s = ack_timeout_s
        self.max_install_retries = max_install_retries
        #: fault plane consulted per flow-mod / packet-in; None = no faults
        self.faults = None
        self.packet_in_count = 0
        self.flow_mods_sent = 0
        self.flow_mods_lost = 0
        self.flow_mods_retried = 0
        self.packet_ins_blocked = 0
        for sw in network.switches():
            sw.connect_controller(self._handle_packet_in)
        network.link_listeners.append(self._handle_link_event)
        network.switch_listeners.append(self._handle_switch_event)

    # -- app management -----------------------------------------------------
    def register(self, app: ControllerApp) -> ControllerApp:
        """Attach and activate a control application."""
        app.attach(self)
        self.apps.append(app)
        return app

    def _handle_packet_in(self, switch: Switch, packet: Packet, in_port: int) -> None:
        if self.faults is not None and self.faults.packet_in_blocked(switch.name):
            # Control-channel partition: the punt never reaches the MC.
            self.packet_ins_blocked += 1
            return
        self.packet_in_count += 1
        for app in self.apps:
            if app.on_packet_in(switch, packet, in_port):
                return

    def _handle_link_event(self, a: str, b: str, up: bool) -> None:
        self.detector.deliver(self._on_link_detected, a, b, up)

    def _on_link_detected(self, a: str, b: str, up: bool) -> None:
        self.view.set_link_state(a, b, up)
        for app in self.apps:
            app.on_link_event(a, b, up)

    def _handle_switch_event(self, name: str, up: bool) -> None:
        self.detector.deliver(self._on_switch_detected, name, up)

    def _on_switch_detected(self, name: str, up: bool) -> None:
        for app in self.apps:
            app.on_switch_event(name, up)

    # -- southbound operations ---------------------------------------------
    def install_batch(
        self,
        switch_name: str,
        entries: Sequence[FlowEntry],
        groups: Sequence[GroupEntry] = (),
        delay: Optional[float] = None,
    ):
        """Send one bundle — a switch's ``groups`` and flow ``entries`` in
        one control message.  The controller's only install call: a single
        rule goes as a one-entry bundle.

        The switch applies the groups, then the entries, in one callback, so
        a rule never goes live before the group it references; the entries
        feed the classification index incrementally and cost a single
        lookup-cache invalidation.  Returns the event that fires once the
        whole bundle is active.  Loss, rejection and retry apply to the
        bundle as a unit: one fate draw, one ack.
        """
        self.flow_mods_sent += len(entries)
        sw = self.network.switch(switch_name)
        if self.faults is None:
            return sw.install_many_later(entries, delay, groups)
        return self._reliable_send(
            switch_name, lambda d: sw.install_many_later(entries, d, groups), delay
        )

    def _reliable_send(self, switch_name: str, send, delay: Optional[float]):
        """Drive one control message through the fault plane with acks.

        ``send(effective_delay)`` must return an install-complete event.
        The message's fate — lost, delayed, or clean — is decided by the
        fault plane at each attempt; a lost or failed attempt is retried
        after ``ack_timeout_s`` (doubling each round) until it lands or
        ``max_install_retries`` retries are spent.  Returns an event that
        mirrors the final outcome.
        """
        base = self.network.params.flow_install_delay_s if delay is None else delay
        done = self.sim.event()

        def _proc():
            timeout = self.ack_timeout_s
            last_exc: Optional[BaseException] = None
            for attempt in range(self.max_install_retries + 1):
                if attempt > 0:
                    self.flow_mods_retried += 1
                lost, extra = self.faults.flowmod_fate(switch_name)
                if lost:
                    self.flow_mods_lost += 1
                    yield self.sim.timeout(timeout)
                    timeout *= 2
                    continue
                try:
                    yield send(base + extra)
                except Exception as exc:
                    # The switch rejected or never acked (crashed chassis,
                    # table overflow): back off and re-drive like a loss.
                    last_exc = exc
                    yield self.sim.timeout(timeout)
                    timeout *= 2
                    continue
                done.succeed()
                return
            done.fail(
                last_exc
                if last_exc is not None
                else InstallLostError(
                    f"flow-mod to {switch_name} lost "
                    f"{self.max_install_retries + 1} times"
                )
            )

        self.sim.process(_proc())
        return done

    def remove_by_cookie(self, switch_name: str, cookie: int) -> Event:
        """Remove all rules and groups tagged with ``cookie`` (teardown).

        Returns an event firing once the removal has landed on the switch.
        Removals are idempotent, so under a lossy fault plane they are
        re-driven without a retry budget (capped exponential backoff) —
        repair sequences *must* observe old rules gone before re-using a
        cookie, or a delayed removal could eat the replacement rules.
        """
        sw = self.network.switch(switch_name)
        done = self.sim.event()

        def _do():
            sw.table.remove_by_cookie(cookie)
            sw.table.remove_groups_by_cookie(cookie)
            done.succeed()

        if self.faults is None:
            self.sim.call_later(self.network.params.flow_install_delay_s, _do)
            return done

        def _proc():
            timeout = self.ack_timeout_s
            while True:
                lost, extra = self.faults.flowmod_fate(switch_name)
                if lost:
                    self.flow_mods_lost += 1
                    yield self.sim.timeout(timeout)
                    timeout = min(timeout * 2, 64 * self.ack_timeout_s)
                    continue
                yield self.sim.timeout(
                    self.network.params.flow_install_delay_s + extra
                )
                _do()
                return

        self.sim.process(_proc())
        return done

    def packet_out(self, switch_name: str, packet: Packet, out_port: int) -> None:
        """Re-inject a punted packet at a switch."""
        if self.faults is not None and self.faults.packet_in_blocked(switch_name):
            # Partitioned control channel blocks the packet-out too.
            self.packet_ins_blocked += 1
            return
        sw = self.network.switch(switch_name)
        self.sim.call_later(
            self.network.params.packet_out_delay_s, sw.transmit, packet, out_port
        )

    # -- introspection / verification -----------------------------------------
    def verify(self):
        """Statically verify the installed data plane.

        If a Mimic Controller app is registered, its channel plans unlock
        the MIC intent checks too.  Returns a
        :class:`repro.analysis.VerificationReport`.
        """
        from ..analysis import verify_network

        mic = next((app for app in self.apps if app.name == "mic"), None)
        return verify_network(self.network, mic=mic)
