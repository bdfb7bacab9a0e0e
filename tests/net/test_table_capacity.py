"""Flow-table capacity (TCAM budget) tests."""

import pytest

from repro.core import MIC_PRIORITY, MimicController
from repro.core.controller import EstablishError
from repro.net import FlowEntry, FlowTable, Match, NetParams, Network, Output, fat_tree
from repro.net.flowtable import TableFullError
from repro.sdn import Controller, L3ShortestPathApp


class TestTable:
    def test_unbounded_by_default(self):
        t = FlowTable()
        for i in range(5000):
            t.install(FlowEntry(Match(sport=i % 65536), [Output(1)]))
        assert len(t) == 5000

    def test_capacity_enforced(self):
        t = FlowTable(max_entries=2)
        t.install(FlowEntry(Match(), [Output(1)]))
        t.install(FlowEntry(Match(), [Output(2)]))
        with pytest.raises(TableFullError):
            t.install(FlowEntry(Match(), [Output(3)]))

    def test_removal_frees_capacity(self):
        t = FlowTable(max_entries=1)
        m = Match(sport=1)
        t.install(FlowEntry(m, [Output(1)]))
        t.remove(m)
        t.install(FlowEntry(Match(sport=2), [Output(1)]))  # fits again


class TestMicUnderPressure:
    def _deploy(self, capacity):
        net = Network(
            fat_tree(4),
            params=NetParams(switch_table_capacity=capacity),
            seed=60,
        )
        ctrl = Controller(net)
        mic = ctrl.register(MimicController())
        ctrl.register(L3ShortestPathApp())
        return net, mic

    def test_establish_fails_cleanly_when_tables_full(self):
        net, mic = self._deploy(capacity=3)

        def fill_then_try():
            # Occupy the tiny tables with a couple of channels...
            established = 0
            try:
                for i in range(1, 8):
                    yield from mic.establish(f"h{i}", f"h{17 - i}",
                                             service_port=80, n_mns=3)
                    established += 1
            except EstablishError:
                pass
            return established

        proc = net.sim.process(fill_then_try())
        net.run(until=proc)
        # At least one channel failed against 3-entry tables...
        assert proc.value < 7
        # ...and the failure left no residue: live state matches bookkeeping.
        assert mic.flow_ids.live_count == mic.live_channels
        net.run(until=net.sim.now + 1.0)
        for sw in net.switches():
            keys = [e.match.key() for e in sw.table.entries
                    if e.priority == MIC_PRIORITY]
            assert len(keys) == len(set(keys))

    def test_failure_event_traced(self):
        """The refusal is the bundle event failing with the switch's
        ``TableFullError``, watched from outside each switch."""
        net, mic = self._deploy(capacity=1)
        bundles = []
        for sw in net.switches():
            def install_many_later(entries, delay=None, groups=(),
                                   inner=sw.install_many_later, name=sw.name):
                bundles.append((name, inner(entries, delay, groups)))
                return bundles[-1][1]

            sw.install_many_later = install_many_later

        def try_one():
            try:
                yield from mic.establish("h1", "h16", service_port=80, n_mns=3)
            except EstablishError:
                return "failed"
            return "ok"

        proc = net.sim.process(try_one())
        net.run(until=proc)
        assert proc.value == "failed"
        refused = [
            (name, str(ev.value)) for name, ev in bundles
            if ev.triggered and not ev.ok and isinstance(ev.value, TableFullError)
        ]
        assert refused
        assert all(text.startswith(f"{name}: ") for name, text in refused)

    def test_generous_capacity_unaffected(self):
        net, mic = self._deploy(capacity=500)

        def go():
            yield from mic.establish("h1", "h16", service_port=80, n_mns=3)

        proc = net.sim.process(go())
        net.run(until=proc)
        assert mic.live_channels == 1
