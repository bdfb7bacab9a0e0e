"""The tournament's adversary suite.

Five registered :class:`~repro.attacks.base.Attack` implementations, each
scored against exact simulator ground truth (journey linkage or the
strategy's draw log), never against the attacker's own confidence:

* ``mn-correlation`` — content matching at a compromised MN,
* ``timing-correlation`` — delay/size matching at the same vantage (no
  content access; what survives re-encryption),
* ``size-fingerprint`` — byte-volume recovery at the initiator's edge,
* ``watermark`` — rate-profile matching between the initiator's edge and
  candidate responder edges,
* ``churn-exploit`` — linking pre- and post-rotation m-addresses across a
  strategy's address churn.

The registration order here is the doc-table order in
``docs/anonymity.md`` and the attack order in the frontier JSON.
"""

from __future__ import annotations

from collections import defaultdict

from .base import Attack, AttackContext, AttackResult, register_attack
from .correlation import (
    correlate_timing_with_truth,
    correlate_with_truth,
    estimate_flow_sizes,
    interarrival_signature,
    rate_similarity,
    size_estimate_error,
)
from .observer import host_outbound, node_vantage

__all__ = [
    "ChurnExploit",
    "MnCorrelation",
    "SizeFingerprint",
    "TimingCorrelation",
    "Watermark",
]


def _first_mn_points(ctx: AttackContext):
    """The deduplicated first-MN taps, in channel order."""
    seen: dict[str, object] = {}
    for ch in ctx.channels:
        if ch.first_mn not in seen:
            seen[ch.first_mn] = ctx.point(ch.first_mn)
    return list(seen.values())


@register_attack
class MnCorrelation(Attack):
    """Content matching at a compromised mimic node (Sec IV-C)."""

    name = "mn-correlation"
    vantage = "each channel's first MN"
    signal = "identical payload bytes in / out within a time window"
    scored_against = "journey delivered lineages (decoy copies never hit)"

    def run(self, ctx: AttackContext) -> AttackResult:
        """Mean expected accuracy of content correlation over every tap."""
        results = [
            correlate_with_truth(point, ctx.journeys)
            for point in _first_mn_points(ctx)
        ]
        scored = [r for r in results if r.matched]
        accuracy = (
            sum(r.expected_accuracy for r in scored) / len(scored)
            if scored
            else 0.0
        )
        return AttackResult(
            attack=self.name,
            accuracy=accuracy,
            details={
                "taps": len(results),
                "matched_ingress": sum(r.matched for r in results),
                "decoy_candidates": sum(r.decoy_candidates for r in results),
                "true_candidates": sum(r.true_candidates for r in results),
            },
        )


@register_attack
class TimingCorrelation(Attack):
    """Delay/size matching at the MN — works even against re-encryption."""

    name = "timing-correlation"
    vantage = "each channel's first MN"
    signal = "egress within the processing-delay window, similar size"
    scored_against = "journey delivered lineages"

    def run(self, ctx: AttackContext) -> AttackResult:
        """Mean expected accuracy of timing correlation over every tap."""
        results = [
            correlate_timing_with_truth(point, ctx.journeys)
            for point in _first_mn_points(ctx)
        ]
        scored = [r for r in results if r.matched]
        accuracy = (
            sum(r.expected_accuracy for r in scored) / len(scored)
            if scored
            else 0.0
        )
        return AttackResult(
            attack=self.name,
            accuracy=accuracy,
            details={
                "taps": len(results),
                "matched_ingress": sum(r.matched for r in results),
                "mean_match_rate": (
                    sum(r.match_rate for r in results) / len(results)
                    if results
                    else 0.0
                ),
            },
        )


@register_attack
class SizeFingerprint(Attack):
    """Recover the channel's true volume from its biggest observed flow."""

    name = "size-fingerprint"
    vantage = "initiator's edge switch"
    signal = "per-signature byte totals of the host's outbound traffic"
    scored_against = "true payload bytes the initiator sent"

    def run(self, ctx: AttackContext) -> AttackResult:
        """Mean per-channel closeness of the volume estimate to truth."""
        per_channel: list[float] = []
        for ch in ctx.channels:
            view = host_outbound(ctx.point(ch.initiator_edge), ch.initiator_ip)
            estimates = estimate_flow_sizes(view)
            err = size_estimate_error(ch.payload_bytes, estimates)
            per_channel.append(max(0.0, 1.0 - min(1.0, err)))
        accuracy = sum(per_channel) / len(per_channel) if per_channel else 0.0
        return AttackResult(
            attack=self.name,
            accuracy=accuracy,
            details={
                "channels": len(per_channel),
                "per_channel_accuracy": per_channel,
            },
        )


@register_attack
class Watermark(Attack):
    """Flow watermarking: match the initiator's rate profile at candidate
    responder edges — the channel's traffic shape is the watermark."""

    name = "watermark"
    vantage = "initiator edge + every candidate responder edge"
    signal = "cosine similarity of packet-rate profiles"
    scored_against = "the true initiator↔responder pairing"

    #: rate-profile bucket width; coarse enough to survive queueing jitter
    bucket_s = 0.05

    def run(self, ctx: AttackContext) -> AttackResult:
        """Expected fraction of channels linked correctly when the attacker
        picks uniformly among the most similar responder edges."""
        correct = 0.0
        scores: dict[str, dict[str, float]] = {}
        for ch in ctx.channels:
            out = host_outbound(ctx.point(ch.initiator_edge), ch.initiator_ip)
            sig = interarrival_signature(out.ingress(), bucket_s=self.bucket_s)
            sims: dict[str, float] = {}
            for cand in ctx.channels:
                view = node_vantage(
                    ctx.point(cand.responder_edge), cand.responder_ip
                )
                cand_sig = interarrival_signature(
                    view.ingress(), bucket_s=self.bucket_s
                )
                sims[cand.responder] = rate_similarity(sig, cand_sig)
            scores[ch.initiator] = sims
            best = max(sims.values())
            ties = [name for name, sim in sims.items() if sim == best]
            if ch.responder in ties:
                correct += 1 / len(ties)
        n = len(ctx.channels)
        return AttackResult(
            attack=self.name,
            accuracy=correct / n if n else 0.0,
            details={"pairings": n, "correct": correct, "similarity": scores},
        )


@register_attack
class ChurnExploit(Attack):
    """Link a flow's old and new m-addresses across a rotation gap.

    Moving-target strategies kill one address signature and birth another;
    the attacker claims two signatures are the same flow when the new one
    first appears within ``link_window_s`` of the old one's last sighting
    with a similar packet size.  Accuracy is the *precision* of those
    claims against the strategy's draw log — a strategy that never rotates
    offers no transitions, so the attack scores 0.
    """

    name = "churn-exploit"
    vantage = "each channel's first MN"
    signal = "temporal adjacency + size similarity across address churn"
    scored_against = "the strategy's m-address draw log (signature→flow)"

    link_window_s = 1.0
    size_tolerance = 64

    def run(self, ctx: AttackContext) -> AttackResult:
        """Precision of claimed old→new links against the draw log."""
        truth = ctx.signatures
        claimed = 0
        correct = 0
        observed_sigs = 0
        for point in _first_mn_points(ctx):
            groups: dict[tuple, list] = defaultdict(list)
            for obs in point.ingress():
                sig = (obs.src_ip, obs.dst_ip, obs.sport, obs.dport, obs.mpls)
                if sig in truth:  # ignore control-plane / baseline traffic
                    groups[sig].append(obs)
            observed_sigs += len(groups)
            spans = sorted(
                (
                    min(o.time for o in seen),
                    max(o.time for o in seen),
                    sum(o.size for o in seen) / len(seen),
                    sig,
                )
                for sig, seen in groups.items()
            )
            for i, (first_a, last_a, size_a, sig_a) in enumerate(spans):
                for first_b, _last_b, size_b, sig_b in spans[i + 1:]:
                    if first_b <= last_a:
                        continue  # overlapping lifetimes: not a rotation
                    if first_b - last_a > self.link_window_s:
                        break
                    if abs(size_a - size_b) > self.size_tolerance:
                        continue
                    claimed += 1
                    if truth[sig_a] == truth[sig_b]:
                        correct += 1
        return AttackResult(
            attack=self.name,
            accuracy=correct / claimed if claimed else 0.0,
            details={
                "observed_signatures": observed_sigs,
                "links_claimed": claimed,
                "links_correct": correct,
            },
        )
