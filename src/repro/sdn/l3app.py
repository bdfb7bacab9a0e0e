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
        ctrl = self.controller
        net = ctrl.network
        src_host = net.host_by_ip(packet.ip_src)
        dst_host = net.host_by_ip(packet.ip_dst)
        if src_host is None or dst_host is None:
            return False  # not ours (maybe an m-flow packet; let MIC decide)
        pair = (packet.ip_src, packet.ip_dst)
        if pair in self._installed_pairs:
            # Rules are already (being) installed; hold the packet.
            self._pending.setdefault(pair, []).append((switch, packet, in_port))
            return True
        self._installed_pairs.add(pair)
        self._pending.setdefault(pair, []).append((switch, packet, in_port))
        try:
            self.wire_pair(src_host.name, dst_host.name, release_pair=pair)
        except (NoPathError, KeyError, IndexError):
            # No surviving path right now: drop the held packets and forget
            # the pair so a later packet-in retries once the fabric heals.
            self._installed_pairs.discard(pair)
            self._pending.pop(pair, None)
        return True

    # ------------------------------------------------------------------
    def _plan_pair(self, src_name: str, dst_name: str) -> tuple[int, list[str]]:
        """Pick a host pair's path and cookie and record both directions.

        The one place a pair is planned: one path draw from the
        controller's rng, the next cookie.  Returns ``(cookie, path)``.
        """
        ctrl = self.controller
        net = ctrl.network
        path = ctrl.view.pick_path(src_name, dst_name, ctrl.rng)
        self.pair_paths[(src_name, dst_name)] = path
        self.pair_paths[(dst_name, src_name)] = list(reversed(path))
        self._next_cookie += 1
        cookie = self._next_cookie
        self._pair_cookies[(src_name, dst_name)] = cookie
        self._pair_cookies[(dst_name, src_name)] = cookie
        src_ip, dst_ip = net.host(src_name).ip, net.host(dst_name).ip
        self._installed_pairs.add((src_ip, dst_ip))
        self._installed_pairs.add((dst_ip, src_ip))
        return cookie, path

    def _hop_rules(
        self, src_name: str, dst_name: str, path: list[str], cookie: int
    ) -> list[tuple[str, FlowEntry]]:
        """``(switch, rule)`` for every hop of a pair's path: the forward
        direction's exact ⟨ip_src, ip_dst⟩ rules, then the reverse's."""
        ctrl = self.controller
        src_ip = ctrl.network.host(src_name).ip
        dst_ip = ctrl.network.host(dst_name).ip
        rules = []
        for hop_path, match in (
            (path, Match(ip_src=src_ip, ip_dst=dst_ip)),
            (list(reversed(path)), Match(ip_src=dst_ip, ip_dst=src_ip)),
        ):
            for sw_name, out_port in ctrl.ports_along(hop_path):
                rules.append((sw_name, FlowEntry(
                    match, [Output(out_port)], priority=self.priority, cookie=cookie
                )))
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
        goldens.
        """
        cookie, path = self._plan_pair(src_name, dst_name)
        events = [
            self._send(sw_name, [rule])
            for sw_name, rule in self._hop_rules(src_name, dst_name, path, cookie)
        ]
        if release_pair is not None:
            self._settle(src_name, dst_name, cookie, events, release_pair)
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
        net = ctrl.network
        cookie = self._pair_cookies[(src_name, dst_name)]
        for node in self.pair_paths[(src_name, dst_name)][1:-1]:
            ctrl.remove_by_cookie(node, cookie)
        for a, b in ((src_name, dst_name), (dst_name, src_name)):
            self.pair_paths.pop((a, b), None)
            self._pair_cookies.pop((a, b), None)
            self._installed_pairs.discard((net.host(a).ip, net.host(b).ip))

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
        affected = [
            pair
            for pair, path in self.pair_paths.items()
            if any((u, v) in dead for u, v in zip(path, path[1:]))
        ]
        repaired: set[frozenset] = set()
        for pair in affected:
            key = frozenset(pair)
            if key in repaired:
                continue  # forward+reverse repaired together
            repaired.add(key)
            src, dst = pair
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
        reinstalled: set[frozenset] = set()
        for pair, path in list(self.pair_paths.items()):
            if name not in path:
                continue
            key = frozenset(pair)
            if key in reinstalled:
                continue  # forward+reverse share the path and cookie
            reinstalled.add(key)
            src, dst = pair
            cookie = self._pair_cookies[pair]
            events = [
                self._send(sw_name, [rule])
                for sw_name, rule in self._hop_rules(src, dst, path, cookie)
                if sw_name == name
                and not (rule.match in landed and landed[rule.match].ok)
            ]
            self._settle(src, dst, cookie, events)

    # ------------------------------------------------------------------
    def wire_all_pairs(self) -> list:
        """Proactively route every unordered host pair (both directions),
        one bundle per switch.

        Each pair is planned as :meth:`wire_pair` plans it — same path
        draws, cookies and rule order — then every switch gets its rules as
        one :meth:`Controller.install_batch` bundle: one control message,
        one fate draw under a fault plane.  Entry ids are minted here in
        the order per-rule installs would land them, so ids and per-table
        order are those of wiring pair by pair.  Returns one install event
        per switch bundle.
        """
        ctrl = self.controller
        entry_ids = ctrl.sim.ids("flowtable.entry")
        bundles: dict[str, list[FlowEntry]] = {}
        hosts = ctrl.network.topo.hosts()
        for i, a in enumerate(hosts):
            for b in hosts[i + 1 :]:
                cookie, path = self._plan_pair(a, b)
                for sw_name, rule in self._hop_rules(a, b, path, cookie):
                    rule.entry_id = next(entry_ids)
                    bundles.setdefault(sw_name, []).append(rule)
        return [self._send(sw_name, entries) for sw_name, entries in bundles.items()]
