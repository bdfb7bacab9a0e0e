"""Baseline L3 shortest-path forwarding app ("common flows").

This is the non-anonymous routing that plain TCP/SSL traffic uses — the
paper's baseline.  Reactive mode answers packet-ins by installing exact
⟨ip_src, ip_dst⟩ rules along a randomly chosen equal-cost shortest path (both
directions, so the reply does not punt again); proactive mode pre-wires all
host pairs, one bundle per switch, which the throughput benchmarks use to
avoid measuring setup.
"""

from __future__ import annotations

from typing import Optional

from ..net.flowtable import FlowEntry, Match, Output
from ..net.graph import NoPathError
from ..net.packet import Packet
from ..net.switch import Switch
from ..sim.engine import Event
from .controller import ControllerApp

__all__ = ["L3ShortestPathApp"]


class L3ShortestPathApp(ControllerApp):
    """Reactive/proactive shortest-path unicast routing by IP pair."""

    name = "l3"

    def __init__(self, priority: int = 10):
        self.priority = priority
        self._pending: dict[tuple, list[tuple[Switch, Packet, int]]] = {}
        self._installed_pairs: set[tuple] = set()
        #: (src_host, dst_host) -> chosen node path (forward direction)
        self.pair_paths: dict[tuple[str, str], list[str]] = {}
        #: (src_host, dst_host) -> cookie tagging that pair's rules
        self._pair_cookies: dict[tuple[str, str], int] = {}
        self._next_cookie = 0x4C33_0000  # 'L3'
        #: switch the app believes down -> {match: install event} of the hop
        #: rules sent to it meanwhile.  The app hears of a crash after it
        #: happened, so one of these acked OK (or still in flight when the
        #: reboot is heard) landed on the already-rebooted chassis.
        self._down: dict[str, dict] = {}

    # ------------------------------------------------------------------
    def on_packet_in(self, switch: Switch, packet: Packet, in_port: int) -> bool:
        """Wire the punted packet's host pair and hold it until rules land."""
        net = self.controller.network
        src_host = net.host_by_ip(packet.ip_src)
        dst_host = net.host_by_ip(packet.ip_dst)
        if src_host is None or dst_host is None:
            return False  # not ours (maybe an m-flow packet; let MIC decide)
        pair = (packet.ip_src, packet.ip_dst)
        self._pending.setdefault(pair, []).append((switch, packet, in_port))
        if pair in self._installed_pairs:
            return True  # rules are already (being) installed: hold the packet
        try:
            self.wire_pair(src_host.name, dst_host.name, release_pair=pair)
        except (NoPathError, KeyError, IndexError):
            # No surviving path right now: drop the held packets; the pair
            # is not planned, so a later packet-in retries once it heals.
            self._pending.pop(pair, None)
        return True

    # ------------------------------------------------------------------
    def attach(self, controller) -> None:
        """Bind the app and resolve, once, what every wiring path reads:
        host IPs, the switch set and one shared ``Output`` per port."""
        super().attach(controller)
        net = controller.network
        self._ips = {h.name: h.ip for h in net.hosts()}
        self._switches = frozenset(net.topo.switches())
        self._outputs = {port: Output(port) for port in dict.fromkeys(net.port_map.values())}

    def _plan(self, pairs: list[tuple[str, str]]) -> list[tuple]:
        """The one place pairs are planned: per pair one path draw from the
        controller's rng and the next cookie, both directions recorded;
        ``(src, dst, cookie, path)`` each.  A pair already wired is a
        ``ValueError`` before any draw — a second path under a new cookie
        would strand the first one's rules."""
        for a, b in pairs:
            if (a, b) in self._pair_cookies:
                raise ValueError(f"host pair {a}-{b} is already wired")
        view, rng, ips = self.controller.view, self.controller.rng, self._ips
        plans = []
        for a, b in pairs:
            path = view.pick_path(a, b, rng)
            self.pair_paths[(a, b)] = path
            self.pair_paths[(b, a)] = path[::-1]
            self._next_cookie += 1
            cookie = self._next_cookie
            self._pair_cookies[(a, b)] = self._pair_cookies[(b, a)] = cookie
            self._installed_pairs.update(((ips[a], ips[b]), (ips[b], ips[a])))
            plans.append((a, b, cookie, path))
        return plans

    def _rules(self, plans: list[tuple], only: Optional[str] = None) -> list[tuple]:
        """``(switch, rule)`` for every switch hop of each planned pair, in
        plan order: the forward direction's exact ⟨ip_src, ip_dst⟩ rules
        along the path, then the reverse's.  ``only`` keeps one switch's."""
        port_map = self.controller.network.port_map
        ips, switches, outputs = self._ips, self._switches, self._outputs
        rules = []
        for a, b, cookie, path in plans:
            for hops, match in (
                (path, Match(ip_src=ips[a], ip_dst=ips[b])),
                (path[::-1], Match(ip_src=ips[b], ip_dst=ips[a])),
            ):
                node = hops[0]
                for nxt in hops[1:]:
                    if node in switches and (only is None or node == only):
                        out = outputs[port_map[(node, nxt)]]
                        rules.append((node, FlowEntry(
                            match, [out], priority=self.priority, cookie=cookie
                        )))
                    node = nxt
        return rules

    def wire_pair(
        self,
        src_name: str,
        dst_name: str,
        release_pair: Optional[tuple] = None,
    ) -> list:
        """Install forward+reverse rules for a host pair, one flow-mod per
        hop rule.

        Returns install events.  When ``release_pair`` is given (a
        packet-in), packets queued for that pair are re-injected once all
        installs complete, or dropped with the pair if one fails (see
        :meth:`_settle`).  One message per rule, not one bundle per switch:
        bundling would change the fault plane's fate draws under the chaos
        goldens.  ``ValueError`` if the pair is already wired.
        """
        plans = self._plan([(src_name, dst_name)])
        events = [self._send(sw_name, [rule]) for sw_name, rule in self._rules(plans)]
        if release_pair is not None:
            self._settle(src_name, dst_name, plans[0][2], events, release_pair)
        return events

    def _send(self, sw_name: str, entries: list[FlowEntry]) -> Event:
        """Send one ``install_batch`` message; while the app believes the
        switch down, book its rules in ``_down`` (see :meth:`on_switch_event`)."""
        ev = self.controller.install_batch(sw_name, entries)
        if sw_name in self._down:
            self._down[sw_name].update((e.match, ev) for e in entries)
        return ev

    def _settle(
        self,
        src_name: str,
        dst_name: str,
        cookie: int,
        events: list[Event],
        release_pair: Optional[tuple] = None,
    ) -> None:
        """Release the pair's held packets, or retract it if an install failed.

        Every install landed: the packets held for ``release_pair`` are
        re-injected through one ``all_of`` over the installs (the
        work-counter golden counts its dispatch).  One failed: once all have
        settled, the held packets are dropped and the pair is retracted, so
        the next punt wires it afresh.  Settled is a count, not ``all_of``'s
        fail-fast, which would retract while a sibling is still being
        retried and let its rule land after the retraction.  A pair
        re-planned meanwhile is left alone.
        """
        if release_pair is not None:
            self.controller.sim.all_of(events).callbacks.append(
                lambda done: self._release(release_pair) if done.ok else None
            )
        left = len(events)

        def settled(_ev: Event) -> None:
            nonlocal left
            left -= 1
            if left or all(ev.ok for ev in events):
                return
            if release_pair is not None:
                self._pending.pop(release_pair, None)
            if self._pair_cookies.get((src_name, dst_name)) == cookie:
                self._forget(src_name, dst_name)

        for ev in events:
            ev.callbacks.append(settled)

    def _forget(self, src_name: str, dst_name: str) -> None:
        """Remove a wired pair's rules along its path and forget both
        directions, so the next packet-in for it wires it again."""
        ctrl = self.controller
        cookie = self._pair_cookies[(src_name, dst_name)]
        for node in self.pair_paths[(src_name, dst_name)][1:-1]:
            ctrl.remove_by_cookie(node, cookie)
        for a, b in ((src_name, dst_name), (dst_name, src_name)):
            self.pair_paths.pop((a, b), None)
            self._pair_cookies.pop((a, b), None)
            self._installed_pairs.discard((self._ips[a], self._ips[b]))

    def _release(self, pair: tuple) -> None:
        ctrl = self.controller
        for switch, packet, in_port in self._pending.pop(pair, []):
            # Re-run the packet through the (now populated) table.
            ctrl.sim.call_later(
                ctrl.network.params.packet_out_delay_s,
                switch.receive, packet, in_port,
            )

    # ------------------------------------------------------------------
    def on_link_event(self, a: str, b: str, up: bool) -> None:
        """Reroute every installed pair whose path crossed a failed link."""
        if up:
            return
        dead = {(a, b), (b, a)}
        for src, dst, _cookie, _path in self._wired(
            lambda path: any((u, v) in dead for u, v in zip(path, path[1:]))
        ):
            self._forget(src, dst)
            try:
                self.wire_pair(src, dst)
            except (NoPathError, KeyError, IndexError):
                # The pair is unreachable on the surviving fabric; leave it
                # unwired — the next packet-in rewires it reactively.
                pass

    # ------------------------------------------------------------------
    def on_switch_event(self, name: str, up: bool) -> None:
        """Re-install a rebooted switch's rules for every wired pair.

        Deterministic and RNG-free: each affected pair keeps its chosen
        path and cookie, only the wiped switch's hop rules are re-sent.
        Nothing to send on the down edge — the chassis blackholes until the
        reboot, and the stored paths are still the right ones after it.  A
        hop rule wired reactively between the reboot and the controller
        hearing of it is already on the new chassis and is not sent twice.
        """
        if not up:
            self._down[name] = {}
            return
        landed = self._down.pop(name, {})
        for plan in self._wired(lambda path: name in path):
            src, dst, cookie, _path = plan
            events = [
                self._send(sw_name, [rule])
                for sw_name, rule in self._rules([plan], only=name)
                if not (rule.match in landed and landed[rule.match].ok)
            ]
            self._settle(src, dst, cookie, events)

    def _wired(self, affected) -> list[tuple]:
        """Each wired pair whose path ``affected`` accepts, once (both
        directions share a cookie), as the plan it was wired with:
        ``(src, dst, cookie, path)``."""
        plans: dict[int, tuple] = {}
        for (a, b), path in self.pair_paths.items():
            cookie = self._pair_cookies[(a, b)]
            if cookie not in plans and affected(path):
                plans[cookie] = (a, b, cookie, path)
        return list(plans.values())

    # ------------------------------------------------------------------
    def wire_all_pairs(self) -> list:
        """Proactively route every unordered host pair (both directions),
        one bundle per switch.

        One :meth:`_plan` and one :meth:`_rules` pass over every pair — the
        path draws, cookies and rule order of :meth:`wire_pair` pair by pair
        — then each switch's rules go as one :meth:`Controller.install_batch`
        bundle: one control message, one fate draw under a fault plane.
        Entry ids are minted in the order per-rule installs would land them.
        Returns one install event per switch bundle.
        """
        entry_ids = self.controller.sim.ids("flowtable.entry")
        hosts = self.controller.view.hosts
        pairs = [(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1 :]]
        bundles: dict[str, list[FlowEntry]] = {}
        for sw_name, rule in self._rules(self._plan(pairs)):
            rule.entry_id = next(entry_ids)
            bundles.setdefault(sw_name, []).append(rule)
        return [self._send(sw_name, entries) for sw_name, entries in bundles.items()]
