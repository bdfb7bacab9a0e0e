"""Outside watchers for tests: each wraps one live instance, never a class.

Nothing in ``src/`` knows these exist, so a watched run is the run itself.
Both wrap through ``repro.obs.seam``, the seam the profiler, the sanitizer,
the observer and the journey recorder use, so they stack with those
watchers in any order and leave by the same splice:

* :func:`step_log` — a run's dispatched-event fingerprint, the witness
  the byte-identity tests compare (its link's owner is the log);
* :func:`on_bundle` — a callback at each rule a flow-mod bundle lands,
  with the switch's table as that rule left it (what the group-before-rule
  invariant reads; the link's owner is the callback);
* :func:`watchers` — the owners of the links on one method, outermost
  first.
"""

from __future__ import annotations

from repro.obs.seam import links, unwrap, wrap


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
    log: list[tuple[float, int, str]] = []
    wrap(log, "step", _log_step, [sim])
    return log


def _log_step(link):
    log, sim, inner = link
    heap = sim._heap
    if heap:
        when, seq, fn, _args = heap[0]
        log.append((when, seq, _qualname(fn)))
    return inner()


def on_bundle(net, fn) -> None:
    """Call ``fn(switch, entry)`` after each rule a flow-mod bundle lands.

    Wraps every switch's ``_install_now`` per instance; while a bundle
    applies, the switch's table reports each installed rule, so ``fn``
    sees the table between the bundle's rules — a rule that went live
    before its group is visible there.
    """
    wrap(fn, "_install_now", _report_bundle, net.switches())


def _report_bundle(link, entries, groups, ev):
    fn, sw, inner = link
    wrap(fn, "install", _report_rule, [sw.table], [sw])
    try:
        inner(entries, groups, ev)
    finally:
        unwrap(fn, "install", [sw.table])


def _report_rule(link, entry):
    fn, sw, inner = link
    inner(entry)
    fn(sw, entry)


def watchers(obj, name) -> list:
    """The owners of the ``repro.obs.seam`` wrappers on ``obj.<name>``,
    outermost first; ``[]`` when the instance carries none."""
    return [link.__self__[0] for link in links(obj, name)]
