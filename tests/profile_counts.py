"""The deterministic work counters of three profiled seeded runs.

``ProfileReport.counts()`` is calls plus counters per profiled subsystem,
no wall time, so two runs of one seeded scenario give equal counts on any
machine and under any ``PYTHONHASHSEED``.  ``tests/data/profile_counts_seed0.json``
pins them for:

* ``chaos`` — ``run_chaos(seed=0)``: the packet path, repair and the
  journey/observer hooks;
* ``chaos_shards4`` — the same plan on a 4-shard controller, which pins
  ``controlplane.route`` including ``mods.remote``;
* ``hybrid`` — a small ``fat_tree(4)`` hybrid run, which pins
  ``fluid.solve``, the ``hybrid.*`` epoch phases and ``flowtable.lookup``;
* ``prewire`` — proactive L3 wiring of ``fat_tree(4)`` at seed 0, which
  pins the events one bundle per switch costs (``sim.dispatch``).

A change that moves a count is a change in the work the simulator does:
regenerate the file on purpose and name the counters that moved.

Regenerate::

    PYTHONPATH=src python -m tests.profile_counts
"""

import json
import pathlib

from repro.bench import run_hybrid_scenario
from repro.faults import run_chaos
from repro.net import Network, fat_tree
from repro.obs import Profiler
from repro.obs.prof import ProfileReport
from repro.sdn import Controller, L3ShortestPathApp

GOLDEN = pathlib.Path(__file__).parent / "data" / "profile_counts_seed0.json"


def chaos_counts(shards: int = 1, profiler: Profiler | None = None) -> dict:
    """``counts()`` of ``run_chaos(seed=0, shards=shards)``.

    ``profiler`` is one that already profiled that run (the tests share a
    module-scoped run); without it the run is made here.
    """
    if profiler is None:
        profiler = Profiler(sample_every=500)
        run_chaos(seed=0, shards=shards, profiler=profiler)
    return profiler.report().counts()


def hybrid_counts() -> dict:
    """``counts()`` of a 50-channel, 1 MB hybrid run on ``fat_tree(4)``."""
    r = run_hybrid_scenario(
        k=4, channels=50, payload_bytes=1_000_000, sample_rate=0.1,
        seed=7, profile=True,
    )
    return ProfileReport.from_doc(r.profile).counts()


def prewire_counts() -> dict:
    """``counts()`` of pre-wiring every host pair of ``fat_tree(4)`` at
    seed 0, profiled from before ``wire_all_pairs`` until the bundles land."""
    net = Network(fat_tree(4), seed=0)
    l3 = Controller(net).register(L3ShortestPathApp())
    profiler = Profiler().hook(net)
    net.run(until=net.sim.all_of(l3.wire_all_pairs()))
    return profiler.report().counts()


def counts_doc(chaos: dict | None = None) -> dict:
    """The golden's document; ``chaos`` reuses an already-made seed-0 run."""
    return {
        "chaos": chaos if chaos is not None else chaos_counts(),
        "chaos_shards4": chaos_counts(shards=4),
        "hybrid": hybrid_counts(),
        "prewire": prewire_counts(),
    }


def render(doc: dict) -> str:
    """The golden's text: sorted keys, one-space indent."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(render(counts_doc()))
    print(f"wrote {GOLDEN}")
