"""Passive traffic analysis at one vantage point (Sec IV-C, Sec V).

MIC's MNs rewrite headers but not payloads, so an observer on an MN can
pair an ingress packet with the egress packet carrying the same content;
partial multicast answers with k+1 equally plausible egress copies.  Against
hops that re-encrypt (a Tor relay) the fallback is *timing*: the egress
that follows within the processing-delay window at about the same size.

Each attacker is one candidate rule — ``(ingress, [candidate egress])`` per
ingress packet — scored two ways: what it *believes*
(:class:`CorrelationResult`: :func:`correlate_at_mn`,
:func:`correlate_by_timing`) and what is *true*
(:class:`GroundTruthCorrelation`: :func:`correlate_with_truth`,
:func:`correlate_timing_with_truth`), against the journey recorder's exact
linkage (:meth:`repro.obs.JourneyRecorder.journeys_by_content_tag`), which
knows the real continuation from the multicast decoys — the
PINOT/TARN-style methodology.

Beside them, the rate and size analyses of Sec V:
:func:`interarrival_signature` / :func:`rate_similarity` match two vantage
points by rate profile, and :func:`estimate_flow_sizes` /
:func:`size_estimate_error` infer a channel's volume from the flows one
vantage sees (MIC's multiple m-flows show it only a slice).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .observer import Observation, ObservationPoint

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.journey import Journey

__all__ = [
    "CorrelationResult",
    "FlowSizeEstimate",
    "GroundTruthCorrelation",
    "correlate_at_mn",
    "correlate_by_timing",
    "correlate_timing_with_truth",
    "correlate_with_truth",
    "estimate_flow_sizes",
    "interarrival_signature",
    "rate_similarity",
    "size_estimate_error",
]

#: one ingress packet and the egress packets the attacker pairs it with
_Candidates = list[tuple[Observation, list[Observation]]]


@dataclass(frozen=True)
class CorrelationResult:
    """Outcome of the ingress/egress matching attack at one switch."""

    matched: int  # ingress packets with >= 1 candidate egress
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
        candidates."""
        if not self.matched or self.mean_candidates == 0:
            return 0.0
        return 1.0 / self.mean_candidates


@dataclass(frozen=True)
class GroundTruthCorrelation:
    """A matching attack scored against exact journey labels."""

    total_ingress: int
    matched: int  # ingress packets with >= 1 egress candidate
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


def _content_candidates(point: ObservationPoint, window_s: float) -> _Candidates:
    """Egress within ``window_s`` carrying the ingress packet's content tag."""
    egress_by_tag: dict[int, list[Observation]] = defaultdict(list)
    for obs in point.egress():
        egress_by_tag[obs.content_tag].append(obs)
    return [
        (obs, [e for e in egress_by_tag.get(obs.content_tag, [])
               if obs.time <= e.time <= obs.time + window_s])
        for obs in point.ingress()
    ]


def _timing_candidates(
    point: ObservationPoint,
    min_delay_s: float,
    max_delay_s: float,
    size_tolerance: int,
) -> _Candidates:
    """Egress in the delay window whose size is within tolerance (in time
    order; the window is two bisections of the time-sorted egress)."""
    egress = sorted(point.egress(), key=lambda o: o.time)
    times = [e.time for e in egress]
    pairs: _Candidates = []
    for obs in point.ingress():
        lo = bisect_left(times, obs.time + min_delay_s)
        hi = bisect_right(times, obs.time + max_delay_s)
        pairs.append((obs, [
            e for e in egress[lo:hi] if abs(e.size - obs.size) <= size_tolerance
        ]))
    return pairs


def _believed(pairs: _Candidates) -> CorrelationResult:
    """The attacker's own view: how many candidates it had to pick among."""
    counts = [len(candidates) for _obs, candidates in pairs if candidates]
    return CorrelationResult(
        matched=len(counts),
        ambiguous=sum(1 for n in counts if n > 1),
        total_ingress=len(pairs),
        mean_candidates=sum(counts) / len(counts) if counts else 0.0,
    )


def _scored(
    pairs: _Candidates, journeys: dict[int, "Journey"]
) -> GroundTruthCorrelation:
    """Label each candidate true when its packet instance lies on a delivered
    lineage of the *ingress* packet's journey
    (:meth:`~repro.obs.Journey.delivered_uids`) — multicast decoy copies
    never do.  ``expected_accuracy`` is the success probability of a
    uniform pick among candidates, averaged over matched ingress packets.
    Only the journeys of matched ingress packets are read."""
    true_uids: dict[int, set[int]] = {}
    linkable = 0
    decoy_candidates = 0
    true_candidates = 0
    hit_probs: list[float] = []
    for obs, candidates in pairs:
        if not candidates:
            continue
        tag = obs.content_tag
        if tag not in true_uids:
            journey = journeys.get(tag)
            true_uids[tag] = set() if journey is None else journey.delivered_uids()
        delivered = true_uids[tag]
        hits = sum(1 for e in candidates if e.uid in delivered)
        true_candidates += hits
        decoy_candidates += len(candidates) - hits
        if hits:
            linkable += 1
        hit_probs.append(hits / len(candidates))
    return GroundTruthCorrelation(
        total_ingress=len(pairs),
        matched=len(hit_probs),
        linkable=linkable,
        expected_accuracy=sum(hit_probs) / len(hit_probs) if hit_probs else 0.0,
        decoy_candidates=decoy_candidates,
        true_candidates=true_candidates,
    )


def correlate_at_mn(
    point: ObservationPoint, window_s: float = 1.0
) -> CorrelationResult:
    """The content-matching attack over a compromised switch's log.

    For every ingress packet, candidate egresses are packets leaving within
    ``window_s`` carrying identical wire content (same ``content_tag`` —
    header rewrites do not change payload bytes).
    """
    return _believed(_content_candidates(point, window_s))


def correlate_with_truth(
    point: ObservationPoint,
    journeys: dict[int, "Journey"],
    window_s: float = 1.0,
) -> GroundTruthCorrelation:
    """The content-matching attacker of :func:`correlate_at_mn`, scored
    against journey ground truth."""
    return _scored(_content_candidates(point, window_s), journeys)


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
    """
    return _believed(
        _timing_candidates(point, min_delay_s, max_delay_s, size_tolerance)
    )


def correlate_timing_with_truth(
    point: ObservationPoint,
    journeys: dict[int, "Journey"],
    min_delay_s: float = 0.0,
    max_delay_s: float = 2e-3,
    size_tolerance: int = 64,
) -> GroundTruthCorrelation:
    """The timing/size attacker of :func:`correlate_by_timing` (*no*
    content access), scored against journey ground truth."""
    return _scored(
        _timing_candidates(point, min_delay_s, max_delay_s, size_tolerance),
        journeys,
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


@dataclass(frozen=True)
class FlowSizeEstimate:
    """What the attacker concluded about one observed flow."""

    signature: tuple  # (src_ip, dst_ip, sport, dport, mpls)
    packets: int
    bytes: int
    first_seen: float
    last_seen: float


def estimate_flow_sizes(point: ObservationPoint) -> list[FlowSizeEstimate]:
    """Group the observer's ingress log into flows by their ⟨src, dst,
    ports, label⟩ signature and total each, largest first."""
    groups: dict[tuple, list[Observation]] = defaultdict(list)
    for obs in point.ingress():
        groups[(obs.src_ip, obs.dst_ip, obs.sport, obs.dport, obs.mpls)].append(obs)
    estimates = [
        FlowSizeEstimate(
            signature=sig,
            packets=len(seen),
            bytes=sum(o.size for o in seen),
            first_seen=min(o.time for o in seen),
            last_seen=max(o.time for o in seen),
        )
        for sig, seen in groups.items()
    ]
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
