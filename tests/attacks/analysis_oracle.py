"""The passive-analysis modules as they were before the fold: the oracle.

``repro.attacks`` once wrote its content and timing attackers out in full,
one function per {content, timing} candidate rule × {belief, ground truth}
scorer, in three modules: ``correlation``, ``timing`` and
``size_analysis``.  Their bodies are kept verbatim below, one marked
section each; only this docstring and the merged imports are new.
``tests/attacks/test_analysis_oracle.py`` runs generated observation logs
through these functions and through :mod:`repro.attacks.correlation` and
requires equal results from every function that survived the fold.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.attacks.observer import Observation, ObservationPoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.journey import Journey

# ---- repro/attacks/correlation.py, verbatim --------------------------


@dataclass(frozen=True)
class CorrelationResult:
    """Outcome of the ingress/egress matching attack at one switch."""

    matched: int  # ingress packets with >= 1 content-matched egress
    ambiguous: int  # ingress packets with > 1 candidate egress
    total_ingress: int
    mean_candidates: float  # average egress candidates per matched ingress

    @property
    def match_rate(self) -> float:
        """Fraction of ingress packets with at least one candidate egress."""
        return self.matched / self.total_ingress if self.total_ingress else 0.0

    @property
    def confidence(self) -> float:
        """P(attacker picks the true egress) assuming uniform choice among
        content-matched candidates."""
        if not self.matched or self.mean_candidates == 0:
            return 0.0
        return 1.0 / self.mean_candidates


def correlate_at_mn(
    point: ObservationPoint,
    window_s: float = 1.0,
) -> CorrelationResult:
    """Run the content-matching attack over a compromised switch's log.

    For every ingress packet, candidate egresses are packets leaving within
    ``window_s`` carrying identical wire content (same ``content_tag`` —
    header rewrites do not change payload bytes).
    """
    egress_by_tag: dict[int, list[Observation]] = defaultdict(list)
    for obs in point.egress():
        egress_by_tag[obs.content_tag].append(obs)

    matched = 0
    ambiguous = 0
    candidate_counts: list[int] = []
    ingress = point.ingress()
    for obs in ingress:
        candidates = [
            e
            for e in egress_by_tag.get(obs.content_tag, [])
            if obs.time <= e.time <= obs.time + window_s
        ]
        if candidates:
            matched += 1
            candidate_counts.append(len(candidates))
            if len(candidates) > 1:
                ambiguous += 1
    mean_candidates = (
        sum(candidate_counts) / len(candidate_counts) if candidate_counts else 0.0
    )
    return CorrelationResult(
        matched=matched,
        ambiguous=ambiguous,
        total_ingress=len(ingress),
        mean_candidates=mean_candidates,
    )


@dataclass(frozen=True)
class GroundTruthCorrelation:
    """The content-matching attack scored against exact journey labels."""

    total_ingress: int
    matched: int  # ingress packets with >= 1 content-matched egress candidate
    linkable: int  # matched ingress whose candidate set contains a true egress
    expected_accuracy: float  # P(uniform pick among candidates is a true egress)
    decoy_candidates: int  # candidate egress copies that were decoys
    true_candidates: int  # candidate egress copies on a delivered lineage

    @property
    def match_rate(self) -> float:
        """Fraction of ingress packets the attacker matched at all."""
        return self.matched / self.total_ingress if self.total_ingress else 0.0

    @property
    def decoy_fraction(self) -> float:
        """Fraction of the attacker's candidates that were decoy copies."""
        total = self.decoy_candidates + self.true_candidates
        return self.decoy_candidates / total if total else 0.0


def correlate_with_truth(
    point: ObservationPoint,
    journeys: dict[int, "Journey"],
    window_s: float = 1.0,
) -> GroundTruthCorrelation:
    """Score the content-matching attacker against journey ground truth.

    Candidates are built exactly as in :func:`correlate_at_mn` (same content
    tag, egress within the window).  A candidate is *true* when its packet
    instance lies on a delivered lineage in the journey for that tag
    (:meth:`~repro.obs.Journey.delivered_uids`) — multicast decoy copies
    never do.  ``expected_accuracy`` is the attacker's actual success
    probability under a uniform pick among candidates, averaged over
    matched ingress packets.
    """
    egress_by_tag: dict[int, list[Observation]] = defaultdict(list)
    for obs in point.egress():
        egress_by_tag[obs.content_tag].append(obs)
    true_uids: dict[int, frozenset[int]] = {
        tag: frozenset(j.delivered_uids()) for tag, j in journeys.items()
    }

    matched = 0
    linkable = 0
    decoy_candidates = 0
    true_candidates = 0
    hit_probs: list[float] = []
    ingress = point.ingress()
    for obs in ingress:
        candidates = [
            e
            for e in egress_by_tag.get(obs.content_tag, [])
            if obs.time <= e.time <= obs.time + window_s
        ]
        if not candidates:
            continue
        matched += 1
        delivered = true_uids.get(obs.content_tag, frozenset())
        hits = sum(1 for e in candidates if e.uid in delivered)
        true_candidates += hits
        decoy_candidates += len(candidates) - hits
        if hits:
            linkable += 1
        hit_probs.append(hits / len(candidates))
    expected = sum(hit_probs) / len(hit_probs) if hit_probs else 0.0
    return GroundTruthCorrelation(
        total_ingress=len(ingress),
        matched=matched,
        linkable=linkable,
        expected_accuracy=expected,
        decoy_candidates=decoy_candidates,
        true_candidates=true_candidates,
    )


def end_to_end_correlation(points: list[ObservationPoint]) -> float:
    """Confidence of linking sender to receiver by chaining the per-switch
    correlation attack along a path of compromised switches (the paper's
    "iterated traffic analysis").  Independence across hops is assumed, so
    the chained confidence is the product of per-hop confidences."""
    confidence = 1.0
    for point in points:
        result = correlate_at_mn(point)
        confidence *= result.confidence
    return confidence

# ---- repro/attacks/timing.py, verbatim -------------------------------


def correlate_by_timing(
    point: ObservationPoint,
    min_delay_s: float = 0.0,
    max_delay_s: float = 2e-3,
    size_tolerance: int = 64,
) -> CorrelationResult:
    """Pair ingress/egress packets by delay window and approximate size.

    A candidate egress for an ingress packet leaves within
    ``[min_delay_s, max_delay_s]`` and differs in size by at most
    ``size_tolerance`` bytes (re-encryption preserves size up to padding).
    Returns the same confidence structure as the content attack, so benches
    can compare the two attackers directly.
    """
    egress = sorted(point.egress(), key=lambda o: o.time)
    ingress = point.ingress()
    matched = 0
    ambiguous = 0
    candidate_counts: list[int] = []
    for obs in ingress:
        lo = obs.time + min_delay_s
        hi = obs.time + max_delay_s
        candidates = [
            e
            for e in egress
            if lo <= e.time <= hi and abs(e.size - obs.size) <= size_tolerance
        ]
        if candidates:
            matched += 1
            candidate_counts.append(len(candidates))
            if len(candidates) > 1:
                ambiguous += 1
    mean_candidates = (
        sum(candidate_counts) / len(candidate_counts) if candidate_counts else 0.0
    )
    return CorrelationResult(
        matched=matched,
        ambiguous=ambiguous,
        total_ingress=len(ingress),
        mean_candidates=mean_candidates,
    )


def correlate_timing_with_truth(
    point: ObservationPoint,
    journeys: dict[int, "Journey"],
    min_delay_s: float = 0.0,
    max_delay_s: float = 2e-3,
    size_tolerance: int = 64,
) -> GroundTruthCorrelation:
    """Score the timing/size attacker against journey ground truth.

    Candidates are built exactly as in :func:`correlate_by_timing` (egress
    within the delay window, size within tolerance — *no* content access),
    then labelled with the journey recorder's delivered lineages exactly
    like :func:`~repro.attacks.correlation.correlate_with_truth`: a
    candidate is true when its packet instance lies on a delivered lineage
    of the *ingress* packet's journey.  Returns the same structure, so the
    content and timing attackers compare on one axis.
    """
    egress = sorted(point.egress(), key=lambda o: o.time)
    true_uids: dict[int, frozenset[int]] = {
        tag: frozenset(j.delivered_uids()) for tag, j in journeys.items()
    }
    matched = 0
    linkable = 0
    decoy_candidates = 0
    true_candidates = 0
    hit_probs: list[float] = []
    ingress = point.ingress()
    for obs in ingress:
        lo = obs.time + min_delay_s
        hi = obs.time + max_delay_s
        candidates = [
            e
            for e in egress
            if lo <= e.time <= hi and abs(e.size - obs.size) <= size_tolerance
        ]
        if not candidates:
            continue
        matched += 1
        delivered = true_uids.get(obs.content_tag, frozenset())
        hits = sum(1 for e in candidates if e.uid in delivered)
        true_candidates += hits
        decoy_candidates += len(candidates) - hits
        if hits:
            linkable += 1
        hit_probs.append(hits / len(candidates))
    expected = sum(hit_probs) / len(hit_probs) if hit_probs else 0.0
    return GroundTruthCorrelation(
        total_ingress=len(ingress),
        matched=matched,
        linkable=linkable,
        expected_accuracy=expected,
        decoy_candidates=decoy_candidates,
        true_candidates=true_candidates,
    )


def interarrival_signature(
    observations: Sequence[Observation], bucket_s: float = 0.01
) -> dict[int, int]:
    """Packet counts per time bucket — the flow's rate profile."""
    if bucket_s <= 0:
        raise ValueError("bucket size must be positive")
    signature: dict[int, int] = defaultdict(int)
    for obs in observations:
        signature[int(obs.time / bucket_s)] += 1
    return dict(signature)


def rate_similarity(sig_a: dict[int, int], sig_b: dict[int, int]) -> float:
    """Cosine similarity of two rate profiles in [0, 1].

    1.0 means the two observation points saw identically-shaped traffic —
    the signal a rate-based analyst uses to claim two vantage points watch
    the same flow."""
    if not sig_a or not sig_b:
        return 0.0
    buckets = set(sig_a) | set(sig_b)
    dot = sum(sig_a.get(k, 0) * sig_b.get(k, 0) for k in buckets)
    norm_a = math.sqrt(sum(v * v for v in sig_a.values()))
    norm_b = math.sqrt(sum(v * v for v in sig_b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)

# ---- repro/attacks/size_analysis.py, verbatim ------------------------


@dataclass(frozen=True)
class FlowSizeEstimate:
    """What the attacker concluded about one observed flow."""

    signature: tuple  # (src_ip, dst_ip, sport, dport, mpls)
    packets: int
    bytes: int
    first_seen: float
    last_seen: float

    @property
    def duration(self) -> float:
        """Time between the first and last sighting."""
        return self.last_seen - self.first_seen

    @property
    def mean_rate_Bps(self) -> float:
        """Average observed rate in bytes/second."""
        return self.bytes / self.duration if self.duration > 0 else float(self.bytes)


def estimate_flow_sizes(point: ObservationPoint) -> list[FlowSizeEstimate]:
    """Group the observer's ingress log into flows and total them."""
    groups: dict[tuple, list] = defaultdict(list)
    for obs in point.ingress():
        sig = (obs.src_ip, obs.dst_ip, obs.sport, obs.dport, obs.mpls)
        groups[sig].append(obs)
    estimates = []
    for sig, seen in groups.items():
        estimates.append(
            FlowSizeEstimate(
                signature=sig,
                packets=len(seen),
                bytes=sum(o.size for o in seen),
                first_seen=min(o.time for o in seen),
                last_seen=max(o.time for o in seen),
            )
        )
    estimates.sort(key=lambda e: e.bytes, reverse=True)
    return estimates


def size_estimate_error(true_bytes: int, estimates: list[FlowSizeEstimate]) -> float:
    """Relative error of the attacker's best guess (largest observed flow)
    against the channel's true payload volume.  1.0 = attacker saw nothing;
    0.0 = attacker recovered the exact size."""
    if true_bytes <= 0:
        raise ValueError("true_bytes must be positive")
    best = estimates[0].bytes if estimates else 0
    return abs(true_bytes - best) / true_bytes
