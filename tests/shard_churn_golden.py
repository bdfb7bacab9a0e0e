"""The serialized-CPU churn's outcome, pinned byte for byte.

``run_shard_churn(k=4, clients=8, rounds=2, seed=0)`` — a client on every
edge switch — on one and on four controller shards runs every set-up and
teardown through ``cpu_model="serialized"``: each flow-mod bundle queues
on its owning shard's CPU before it leaves.
What comes out — counts, the simulated span as ``repr`` (every bit of the
float), requests and installs per shard, cross-shard installs — moves if
one charge on that path lands at another instant or in another order.
``tests/data/shard_churn_seed0.json`` holds what the process-per-bundle
charge produced; ``tests/controlplane/test_shard_churn_golden.py`` compares
today's run against it.

Regenerate (only when the simulated outcome is *meant* to change)::

    PYTHONPATH=src python -m tests.shard_churn_golden
"""

import json
import pathlib

from repro.bench.shard_scenario import run_shard_churn

GOLDEN = pathlib.Path(__file__).parent / "data" / "shard_churn_seed0.json"

SHARD_COUNTS = (1, 4)


def churn_doc() -> dict:
    """One entry per shard count, keyed ``shards1`` / ``shards4``."""
    doc = {}
    for shards in SHARD_COUNTS:
        r = run_shard_churn(k=4, shards=shards, clients=8, rounds=2, seed=0)
        doc[f"shards{shards}"] = {
            "setups": r.setups,
            "teardowns": r.teardowns,
            "sim_span_s": repr(r.sim_span_s),
            "requests_by_shard": {str(s): n for s, n in r.requests_by_shard.items()},
            "installs_by_shard": {str(s): n for s, n in r.installs_by_shard.items()},
            "remote_installs": r.remote_installs,
        }
    return doc


def render(doc: dict) -> str:
    """The golden's text: sorted keys, one-space indent."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(render(churn_doc()))
    print(f"wrote {GOLDEN}")
