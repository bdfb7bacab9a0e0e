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
    def _plan_pair(self, src_name: str, dst_name: str) -> tuple[int, tuple]:
        """Pick a host pair's path and cookie and record both directions.

        The one place a pair is planned: one path draw from the
        controller's rng, the next cookie.  Returns ``(cookie, directions)``
        with ``directions`` the forward then the reverse ``(node path,
        exact ⟨ip_src, ip_dst⟩ match)``.
        """
        ctrl = self.controller
        net = ctrl.network
        src = net.host(src_name)
        dst = net.host(dst_name)
        path = ctrl.view.pick_path(src_name, dst_name, ctrl.rng)
        back = list(reversed(path))
        self.pair_paths[(src_name, dst_name)] = path
        self.pair_paths[(dst_name, src_name)] = back
        self._next_cookie += 1
        cookie = self._next_cookie
        self._pair_cookies[(src_name, dst_name)] = cookie
        self._pair_cookies[(dst_name, src_name)] = cookie
        self._installed_pairs.add((src.ip, dst.ip))
        self._installed_pairs.add((dst.ip, src.ip))
        return cookie, (
            (path, Match(ip_src=src.ip, ip_dst=dst.ip)),
            (back, Match(ip_src=dst.ip, ip_dst=src.ip)),
        )

    def wire_pair(
        self,
        src_name: str,
        dst_name: str,
        release_pair: Optional[tuple] = None,
    ) -> list:
        """Install forward+reverse rules for a host pair, one flow-mod per
        hop rule.

        Returns install events.  When ``release_pair`` is given, packets
        queued for that pair are re-injected once all installs complete.
        Per rule because the outage bookkeeping (:meth:`on_switch_event`)
        keys on each hop's own install event.
        """
        ctrl = self.controller
        cookie, directions = self._plan_pair(src_name, dst_name)
        events = []
        for hop_path, match in directions:
            hop_events = ctrl.install_unicast_path(
                hop_path, match, priority=self.priority, cookie=cookie
            )
            events += hop_events
            if self._down:  # wired during an outage
                for (sw_name, _port), ev in zip(ctrl.ports_along(hop_path), hop_events):
                    if sw_name in self._down:
                        self._down[sw_name][match] = ev
        if release_pair is not None:
            done = ctrl.sim.all_of(events)
            done.callbacks.append(lambda _ev: self._release(release_pair))
        return events

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
            old_path = self.pair_paths[pair]
            cookie = self._pair_cookies[pair]
            for node in old_path[1:-1]:
                self.controller.remove_by_cookie(node, cookie)
            for p in (pair, (dst, src)):
                self.pair_paths.pop(p, None)
                self._pair_cookies.pop(p, None)
                src_ip = self.controller.network.host(p[0]).ip
                dst_ip = self.controller.network.host(p[1]).ip
                self._installed_pairs.discard((src_ip, dst_ip))
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
        ctrl = self.controller
        net = ctrl.network
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
            src_ip = net.host(src).ip
            dst_ip = net.host(dst).ip
            for hop_path, match in (
                (path, Match(ip_src=src_ip, ip_dst=dst_ip)),
                (list(reversed(path)), Match(ip_src=dst_ip, ip_dst=src_ip)),
            ):
                for sw_name, out_port in ctrl.ports_along(hop_path):
                    if sw_name != name or (match in landed and landed[match].ok):
                        continue
                    ctrl.install(
                        sw_name,
                        FlowEntry(
                            match, [Output(out_port)],
                            priority=self.priority, cookie=cookie,
                        ),
                    )

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
                cookie, directions = self._plan_pair(a, b)
                for hop_path, match in directions:
                    for sw_name, out_port in ctrl.ports_along(hop_path):
                        bundles.setdefault(sw_name, []).append(FlowEntry(
                            match, [Output(out_port)], priority=self.priority,
                            cookie=cookie, entry_id=next(entry_ids),
                        ))
        events = []
        for sw_name, entries in bundles.items():
            ev = ctrl.install_batch(sw_name, entries)
            events.append(ev)
            if sw_name in self._down:  # see on_switch_event
                self._down[sw_name].update((e.match, ev) for e in entries)
        return events
