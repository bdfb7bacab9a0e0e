"""The folded passive-analysis module against the three modules it replaced.

Hypothesis draws observation logs — times on a dyadic grid (so a packet can
sit exactly on a window edge) or anywhere, sizes a tolerance apart, a few
content tags, uids, flow signatures, both directions in any order — and
journeys with delivered-uid sets, then requires every public function that
survived the fold to give the result the oracle in ``analysis_oracle.py``
gives: both correlators, both ground-truth scorers, the rate signature and
similarity, and the flow-size estimate and its error.  The candidate
builders must also list each ingress packet's candidates in the order the
oracle's scans visit them.
"""

import dataclasses

import analysis_oracle as oracle
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks import correlation
from repro.attacks.observer import Observation, ObservationPoint

TICK = 1 / 1024  # dyadic: sums of grid times are exact
GRID_TIMES = st.integers(0, 12).map(lambda k: k * TICK)
TIMES = st.one_of(GRID_TIMES, GRID_TIMES, st.floats(0.0, 0.02))
WINDOWS = st.sampled_from([0.0, TICK, 2 * TICK, 4 * TICK, 1.0])
SIZES = st.sampled_from([64, 100, 128, 164, 1000, 1064])
TOLERANCES = st.sampled_from([0, 36, 64, 100])
BUCKETS = st.sampled_from([TICK, 3 * TICK, 0.01])

OBSERVATIONS = st.builds(
    Observation,
    time=TIMES,
    switch=st.just("s1"),
    port=st.integers(1, 2),
    direction=st.sampled_from(["in", "out"]),
    src_ip=st.sampled_from(["10.0.0.1", "10.0.0.2"]),
    dst_ip=st.sampled_from(["10.0.0.3", "10.0.0.4"]),
    sport=st.sampled_from([1000, 1001]),
    dport=st.just(80),
    mpls=st.sampled_from([None, 7]),
    size=SIZES,
    uid=st.integers(0, 15),
    content_tag=st.integers(0, 3),
)


class _Journey:
    """What the scorers read of a journey: its delivered uids."""

    def __init__(self, uids):
        self._uids = uids

    def delivered_uids(self):
        return set(self._uids)


JOURNEYS = st.dictionaries(
    st.integers(0, 4),
    st.frozensets(st.integers(0, 15), max_size=6).map(_Journey),
    max_size=5,
)


def _point(observations):
    point = ObservationPoint.__new__(ObservationPoint)
    point.network = None
    point.switch_name = "s1"
    point.observations = list(observations)
    return point


def _fields(result):
    return dataclasses.astuple(result)


def _uids(pairs):
    return [(obs.uid, [e.uid for e in candidates]) for obs, candidates in pairs]


@settings(max_examples=300, deadline=None)
@given(
    log=st.lists(OBSERVATIONS, max_size=24),
    journeys=JOURNEYS,
    window=WINDOWS,
    min_delay=st.sampled_from([0.0, TICK, 2 * TICK]),
    max_delay=WINDOWS,
    tol=TOLERANCES,
)
def test_correlators_and_scorers_match_the_oracle(
    log, journeys, window, min_delay, max_delay, tol
):
    point = _point(log)
    assert _fields(correlation.correlate_at_mn(point, window)) == _fields(
        oracle.correlate_at_mn(point, window)
    )
    assert _fields(
        correlation.correlate_with_truth(point, journeys, window)
    ) == _fields(oracle.correlate_with_truth(point, journeys, window))
    timing = dict(min_delay_s=min_delay, max_delay_s=max_delay, size_tolerance=tol)
    assert _fields(correlation.correlate_by_timing(point, **timing)) == _fields(
        oracle.correlate_by_timing(point, **timing)
    )
    assert _fields(
        correlation.correlate_timing_with_truth(point, journeys, **timing)
    ) == _fields(oracle.correlate_timing_with_truth(point, journeys, **timing))

    # candidate order: the oracle's scans, written out
    egress = point.egress()
    assert _uids(correlation._content_candidates(point, window)) == [
        (i.uid, [e.uid for e in egress
                 if e.content_tag == i.content_tag
                 and i.time <= e.time <= i.time + window])
        for i in point.ingress()
    ]
    by_time = sorted(egress, key=lambda o: o.time)
    assert _uids(correlation._timing_candidates(point, min_delay, max_delay, tol)) == [
        (i.uid, [e.uid for e in by_time
                 if i.time + min_delay <= e.time <= i.time + max_delay
                 and abs(e.size - i.size) <= tol])
        for i in point.ingress()
    ]


@settings(max_examples=200, deadline=None)
@given(
    log_a=st.lists(OBSERVATIONS, max_size=16),
    log_b=st.lists(OBSERVATIONS, max_size=16),
    bucket=BUCKETS,
    true_bytes=st.integers(-1, 5000),
)
def test_rate_and_size_analysis_match_the_oracle(log_a, log_b, bucket, true_bytes):
    sig_a = correlation.interarrival_signature(log_a, bucket)
    sig_b = correlation.interarrival_signature(log_b, bucket)
    assert sig_a == oracle.interarrival_signature(log_a, bucket)
    assert sig_b == oracle.interarrival_signature(log_b, bucket)
    assert correlation.rate_similarity(sig_a, sig_b) == oracle.rate_similarity(
        sig_a, sig_b
    )

    point = _point(log_a)
    estimates = correlation.estimate_flow_sizes(point)
    expected = oracle.estimate_flow_sizes(point)
    assert [_fields(e) for e in estimates] == [_fields(e) for e in expected]
    if true_bytes <= 0:
        with pytest.raises(ValueError):
            correlation.size_estimate_error(true_bytes, estimates)
        with pytest.raises(ValueError):
            oracle.size_estimate_error(true_bytes, expected)
    else:
        assert correlation.size_estimate_error(
            true_bytes, estimates
        ) == oracle.size_estimate_error(true_bytes, expected)
