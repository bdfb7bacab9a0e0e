"""Sim-time periodic sampling of steady-state gauges.

The :class:`MetricsTimeline` wakes every ``period_s`` of *simulated* time
and reads each directed link channel's transmit backlog and the bytes it
moved during the closed period.  Samples land in two places:

* raw per-channel series (``(time, value)`` lists) for plotting and tests,
* the observer's ``link.queue_sample.bytes`` and ``link.utilization``
  histograms, so queue-depth percentiles fall out of the same summary path
  as packet latency.

The sampler is a :class:`~repro.sim.Periodic`: a running timeline keeps
one pending call on the simulator heap, so a bare ``sim.run()``
(run-until-drained) would never return while it is started — drive
observed runs with an explicit horizon (``until=...`` / ``run_for``) or
:meth:`stop` the timeline first.  A stop and a restart within one period
leave one sampling chain, not two: the wakeup scheduled before the stop
never samples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Periodic

if TYPE_CHECKING:  # pragma: no cover
    from .observer import Observer

__all__ = ["MetricsTimeline"]


class MetricsTimeline:
    """Periodic gauge sampler bound to one :class:`~repro.obs.Observer`."""

    def __init__(self, observer: "Observer", period_s: float):
        if not period_s > 0:  # nan included
            raise ValueError("sampling period must be positive")
        self.observer = observer
        self.period_s = period_s
        #: (metric name, channel name) -> [(sim time, value), ...]
        self.series: dict[tuple[str, str], list[tuple[float, float]]] = {}
        self._prev_bytes: dict[str, int] = {}
        self._ticker = Periodic(observer.sim, period_s, self._tick)

    # ------------------------------------------------------------------
    def start(self) -> "MetricsTimeline":
        """Begin sampling; the first sample lands one period from now."""
        if self._ticker.running:
            return self
        for ch in self.observer.channels():
            self._prev_bytes[ch.name] = ch.stats.bytes
        self._ticker.start()
        return self

    def stop(self) -> None:
        """Stop sampling (the already-scheduled wakeup fires as a no-op)."""
        self._ticker.stop()

    def _tick(self) -> None:
        obs = self.observer
        now = obs.sim.now
        capacity_per_period = None
        for ch in obs.channels():
            backlog = float(ch.backlog_bytes())
            self._record("link.queue_sample.bytes", ch.name, now, backlog)
            obs.histogram("link.queue_sample.bytes", channel=ch.name).observe(backlog)
            sent = ch.stats.bytes - self._prev_bytes.get(ch.name, 0)
            self._prev_bytes[ch.name] = ch.stats.bytes
            capacity_per_period = ch.bandwidth_bps * self.period_s / 8.0
            util = sent / capacity_per_period if capacity_per_period > 0 else 0.0
            self._record("link.utilization", ch.name, now, util)
            obs.histogram("link.utilization", channel=ch.name).observe(util)

    def _record(self, metric: str, channel: str, t: float, value: float) -> None:
        self.series.setdefault((metric, channel), []).append((t, value))

    # -- queries ----------------------------------------------------------
    def samples(self, metric: str, channel: str) -> list[tuple[float, float]]:
        """The raw series for one (metric, channel), empty if never sampled."""
        return self.series.get((metric, channel), [])
