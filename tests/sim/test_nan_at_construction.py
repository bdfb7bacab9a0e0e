"""A nan count or period is refused where it is given, not at ``start()``.

``nan < 1`` and ``nan <= 0`` are both False, so a guard written that way
lets nan through: a ``Resource`` that never grants a slot (its waiters
block for ever and the run drains silently), or a ticker whose first
``start()`` fails with "cannot schedule into the past (delay=nan)".
A watcher's count fails with no error at all: a nan ``sample_every``
never samples, and a nan or negative ``max_findings`` records nothing.
"""

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.net import HybridEngine, Network, linear
from repro.obs import Observer, Profiler
from repro.obs.timeline import MetricsTimeline
from repro.sim import Periodic, SimulationError, Simulator
from repro.sim.resources import Resource

NAN = float("nan")


def _network():
    return Network(linear(2, hosts_per_switch=1), seed=0)


@pytest.mark.parametrize("build", [
    lambda: Resource(Simulator(), capacity=NAN),
    lambda: Resource(Simulator(), capacity=0),
    lambda: Periodic(Simulator(), NAN, lambda: None),
    lambda: HybridEngine(_network(), epoch_s=NAN),
], ids=["resource-nan", "resource-zero", "periodic", "hybrid-epoch"])
def test_a_nan_is_a_simulation_error_at_construction(build):
    with pytest.raises(SimulationError):
        build()


def test_a_nan_timeline_period_is_refused_before_anything_ticks():
    obs = Observer.attach(_network())
    with pytest.raises(ValueError, match="positive"):
        MetricsTimeline(obs, NAN)
    with pytest.raises(ValueError, match="positive"):
        obs.start_timeline(NAN)
    assert obs.timeline is None


def test_a_refused_hybrid_epoch_leaves_the_network_unregistered():
    net = _network()
    with pytest.raises(SimulationError, match="epoch_s"):
        HybridEngine(net, epoch_s=NAN)
    assert net.hybrid is None
    assert HybridEngine(net).epoch_s > 0


@pytest.mark.parametrize("build", [
    lambda bad: Profiler(sample_every=bad),
    lambda bad: SimSanitizer(max_findings=bad),
], ids=["profiler-sample-every", "sanitizer-max-findings"])
@pytest.mark.parametrize("bad", [NAN, -1, 1.5], ids=["nan", "negative", "fraction"])
def test_a_watcher_count_that_is_not_an_int_at_least_zero_is_refused(build, bad):
    with pytest.raises(ValueError, match="must be an int >= 0"):
        build(bad)


def test_zero_is_a_watcher_count():
    assert Profiler(sample_every=0).sample_every == 0
    assert SimSanitizer(max_findings=0).max_findings == 0
