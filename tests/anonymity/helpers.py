"""Shared helpers for the anonymity-strategy suite.

The golden files under ``tests/data/`` were generated from the
pre-refactor ``MimicController`` (before the compile/draw logic moved into
``repro.anonymity``), so comparing the post-refactor ``mic`` strategy
against them proves the extraction is behavior-preserving byte for byte.

Regenerate (only when a change is *intended* to alter compiled intents):

    PYTHONPATH=src:. python -c "from tests.anonymity.helpers import write_goldens; write_goldens()"
"""

import json
import pathlib

from repro.core.deployment import deploy_mic
from repro.net.topology import fat_tree

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
INTENTS_GOLDEN = DATA_DIR / "mic_intents_fat_tree4_seed0.json"
SCORECARD_GOLDEN = DATA_DIR / "chaos_scorecard_seed0.json"
#: the same two artifacts on a 4-shard controller (the shard crash the
#: default chaos plan adds included)
INTENTS_GOLDEN_SHARDS4 = DATA_DIR / "mic_intents_fat_tree4_seed0_shards4.json"
SCORECARD_GOLDEN_SHARDS4 = DATA_DIR / "chaos_scorecard_seed0_shards4.json"

#: the canonical cross-pod channel set used for intent snapshots
CANONICAL_CHANNELS = (("h1", "h16", 7001), ("h2", "h15", 7002), ("h3", "h14", 7003))


def establish_canonical(seed=0, decoys=2, n_mns=3, mic_kwargs=None, proto="udp",
                        shards=1):
    """Deploy fat_tree(4) and establish the canonical channels via the MC
    (with ``shards`` controller shards, see
    :func:`repro.core.deployment.deploy_mic`)."""
    dep = deploy_mic(fat_tree(4), seed=seed, mic_kwargs=dict(mic_kwargs or {}),
                     shards=shards)
    grants = []

    def go():
        for initiator, responder, port in CANONICAL_CHANNELS:
            grant = yield from dep.mic.establish(
                initiator, responder, service_port=port, n_mns=n_mns,
                decoys=decoys, proto=proto,
            )
            grants.append(grant)

    dep.sim.process(go(), name="canonical-establish")
    dep.run_for(5.0)
    assert len(grants) == len(CANONICAL_CHANNELS)
    return dep, grants


def _addr(a):
    return f"{a.src_ip}:{a.sport}->{a.dst_ip}:{a.dport}/mpls={a.mpls}"


def intent_snapshot(dep):
    """Deterministic text form of every compiled intent and plan."""
    mic = dep.mic
    out = {"intents": {}, "plans": {}}
    for cookie in sorted(mic.compiled):
        rules, groups, drops = mic.compiled[cookie]
        out["intents"][f"{cookie:#x}"] = {
            "rules": [f"{sw} {e.describe()}" for sw, e in rules],
            "groups": [f"{sw} {g.describe()}" for sw, g in groups],
            "drops": [f"{sw} {e.describe()}" for sw, e in drops],
        }
    for cid in sorted(mic.channels):
        ch = mic.channels[cid]
        out["plans"][str(cid)] = [
            {
                "cookie": f"{p.cookie:#x}",
                "walk": list(p.walk),
                "mns": list(p.mn_positions),
                "fwd": [_addr(a) for a in p.fwd_addrs],
                "rev": [_addr(a) for a in p.rev_addrs],
            }
            for p in ch.flows
        ]
    return out


def snapshot_json(snapshot) -> str:
    """Byte-stable JSON form of a snapshot dict."""
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"


def write_goldens():
    """Regenerate the committed golden files (see module docstring)."""
    from repro.faults import run_chaos, scorecard_json

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for shards, intents, scorecard in (
        (1, INTENTS_GOLDEN, SCORECARD_GOLDEN),
        (4, INTENTS_GOLDEN_SHARDS4, SCORECARD_GOLDEN_SHARDS4),
    ):
        dep, _grants = establish_canonical(shards=shards)
        intents.write_text(snapshot_json(intent_snapshot(dep)))
        card, _dep = run_chaos(seed=0, shards=shards)
        scorecard.write_text(scorecard_json(card) + "\n")
        print(f"wrote {intents}\nwrote {scorecard}")
