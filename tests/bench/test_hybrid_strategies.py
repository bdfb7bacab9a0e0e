"""Anonymity traffic models applied to the hybrid scale scenario."""

import pytest

from repro.bench.hybrid_scenario import (
    FRVM_LANES,
    TARN_SEGMENTS,
    run_hybrid_scenario,
)

COMMON = dict(k=4, channels=24, payload_bytes=50_000, sample_rate=0.5,
              seed=3, time_limit_s=60.0)


def test_mic_strategy_is_the_plain_scenario():
    r = run_hybrid_scenario(strategy="mic", **COMMON)
    assert r.strategy == "mic"
    assert r.lanes == 24
    assert r.rotations == 0
    assert r.fluid_finished == r.fluid_flows
    assert r.packet_finished == r.packet_flows


def test_frvm_splits_each_channel_into_lanes():
    r = run_hybrid_scenario(strategy="frvm", **COMMON)
    assert r.lanes == 24 * FRVM_LANES
    assert r.fluid_flows + r.packet_flows == r.lanes
    assert r.rotations == 0
    assert r.fluid_finished == r.fluid_flows
    assert r.packet_finished == r.packet_flows


def test_tarn_rotates_each_lane_through_segments():
    r = run_hybrid_scenario(strategy="tarn", **COMMON)
    assert r.lanes == 24
    # Every lane hops through TARN_SEGMENTS paths; each hop *between*
    # segments is one rotation, re-installing fresh segment rules.
    assert r.rotations == 24 * (TARN_SEGMENTS - 1)
    # Rotation churn shows up as extra rule installs on the packet subset.
    mic = run_hybrid_scenario(strategy="mic", **COMMON)
    assert r.packet_flows > 0 and mic.packet_flows > 0
    assert r.rules_installed > mic.rules_installed
    assert r.fluid_finished == r.fluid_flows
    assert r.packet_finished == r.packet_flows
    # rotating lanes finish well before the time limit, and later than
    # the single-path lanes they would otherwise be
    assert mic.sim_time_s < r.sim_time_s < 1.0


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown"):
        run_hybrid_scenario(strategy="onion", **COMMON)
