"""Repair/park re-plans stay verifier-clean under every strategy.

Satellite 3: crash a switch mid-rotation (for ``tarn`` the rotation clock
is literally running) and check that the re-emitted rules — including the
off-walk decoy drop rules — satisfy the static verifier's intent replay
once the control plane settles.
"""

import pytest

from repro.anonymity import TarnHopping

from tests.anonymity.helpers import establish_canonical

STRATEGIES_UNDER_TEST = ("mic", "tarn", "frvm")


def _settle(dep, deadline_s=20.0):
    """Advance until no repairs are in flight and nothing is parked."""
    t_end = dep.sim.now + deadline_s
    while dep.sim.now < t_end:
        dep.run_for(0.5)
        if not dep.mic.repairs_in_flight and not dep.mic.parked_flows:
            return
    raise AssertionError(
        f"control plane did not settle: repairing={dep.mic.repairs_in_flight} "
        f"parked={dep.mic.parked_flows}"
    )


@pytest.mark.parametrize("strategy", STRATEGIES_UNDER_TEST)
def test_switch_crash_replans_verify_clean(strategy):
    spec = TarnHopping(period_s=1.0) if strategy == "tarn" else strategy
    dep, _grants = establish_canonical(mic_kwargs={"strategy": spec})
    if strategy == "tarn":
        # Let at least one rotation land so the crash hits mid-rotation
        # state, not the freshly established plans.
        dep.run_for(2.5)
        assert dep.mic.strategy.rotations_completed > 0

    victim = dep.mic.channels[1].flows[0].walk[
        dep.mic.channels[1].flows[0].mn_positions[0]]
    dep.net.set_switch_state(victim, False)
    dep.run_for(1.5)
    dep.net.set_switch_state(victim, True)
    _settle(dep)

    report = dep.mic.verify()
    assert report.violations == [], [str(v) for v in report.violations]
    # The replay covered real work: every channel is still live and the
    # re-plans re-emitted decoy drops off the walk.
    assert dep.mic.live_channels == 3
    assert report.checked_flows > 0
    drops = [d for intents in dep.mic.compiled.values() for d in intents[2]]
    assert drops, "re-plans lost the off-walk decoy drop rules"


@pytest.mark.parametrize("strategy", STRATEGIES_UNDER_TEST)
def test_park_then_retry_replans_verify_clean(strategy):
    """Cutting h1's access link leaves no surviving walk, so the flow
    must *park* (not half-repair); once the link returns the park retry
    loop re-plans it and the replay comes back clean."""
    spec = TarnHopping(period_s=1.0) if strategy == "tarn" else strategy
    dep, _grants = establish_canonical(mic_kwargs={"strategy": spec})
    dep.net.set_link_state("h1", "p0e0", False)
    dep.run_for(3.0)
    assert dep.mic.repairs_parked > 0
    dep.net.set_link_state("h1", "p0e0", True)
    _settle(dep)
    assert dep.mic.verify().violations == []
    assert dep.mic.live_channels == 3
