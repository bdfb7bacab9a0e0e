"""Outside watchers for tests: each wraps one live instance, never a class.

Nothing in ``src/`` knows these exist, so a watched run is the run itself
(the pattern of ``SimSanitizer.hook`` and ``Profiler._bracket``):

* :func:`step_log` — a run's dispatched-event fingerprint, the witness
  the byte-identity tests compare;
* :func:`on_bundle` — a callback at each rule a flow-mod bundle lands,
  with the switch's table as that rule left it (what the group-before-rule
  invariant reads).
"""

from __future__ import annotations

from repro.obs.seam import links


def _qualname(fn) -> str:
    """A heap call's stable label: its callable's qualified name."""
    return getattr(fn, "__qualname__", type(fn).__qualname__)


def step_log(sim) -> list[tuple[float, int, str]]:
    """Record every call ``sim`` dispatches as ``(when, seq, qualname)``.

    Wraps the instance's ``step`` from outside; attach it before the work
    to compare.  Two runs with equal logs dispatched the same calls at the
    same instants in the same order.  One extra scheduled call, even a
    zero-delay no-op dispatched before the wrapper went on, shows: it
    takes a ``seq``, and every later entry's ``seq`` moves.
    """
    log, inner = [], sim.step

    def step():
        heap = sim._heap
        if heap:
            when, seq, fn, _args = heap[0]
            log.append((when, seq, _qualname(fn)))
        return inner()

    sim.step = step
    return log


def on_bundle(net, fn) -> None:
    """Call ``fn(switch, entry)`` after each rule a flow-mod bundle lands.

    Wraps every switch's ``_install_now`` per instance; while a bundle
    applies, the switch's table reports each installed rule, so ``fn``
    sees the table between the bundle's rules — a rule that went live
    before its group is visible there.
    """
    for sw in net.switches():
        _watch_bundles(sw, fn)


def _watch_bundles(sw, fn) -> None:
    inner = sw._install_now

    def install_now(entries, groups, ev):
        table = sw.table
        install = table.install

        def install_and_report(entry):
            install(entry)
            fn(sw, entry)

        table.install = install_and_report
        try:
            inner(entries, groups, ev)
        finally:
            del table.install

    sw._install_now = install_now


def watchers(obj, name) -> list:
    """The owners of the ``repro.obs.seam`` wrappers on ``obj.<name>``,
    outermost first; ``[]`` when the instance carries none."""
    return [link.__self__[0] for link in links(obj, name)]
