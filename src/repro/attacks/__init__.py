"""Adversary machinery and anonymity metrics for the security analysis.

Beyond the per-primitive analysis tools, the package fields a registered
adversary suite (:mod:`.suite`) behind the :class:`Attack` protocol and a
strategy × attack tournament (:mod:`.tournament`) that emits the
anonymity-vs-overhead frontier — ``python -m repro.attacks tournament``.
"""

from .anonymity_set import (
    EmpiricalAnonymity,
    LinkAnonymity,
    empirical_anonymity,
    link_anonymity,
    walk_anonymity,
)
from .compromise import LeakReport, analyze_position, unlinkability_holds
from .correlation import (
    CorrelationResult,
    FlowSizeEstimate,
    GroundTruthCorrelation,
    correlate_at_mn,
    correlate_by_timing,
    correlate_timing_with_truth,
    correlate_with_truth,
    estimate_flow_sizes,
    interarrival_signature,
    rate_similarity,
    size_estimate_error,
)
from .metrics import (
    anonymity_set_size,
    expected_uniform_accuracy,
    linkage_success_rate,
    normalized_entropy,
    posterior_entropy,
)
from .base import (
    ATTACKS,
    Attack,
    AttackContext,
    AttackResult,
    ChannelTruth,
    format_attack_table,
    get_attack,
    register_attack,
)
from .observer import (
    Observation,
    ObservationPoint,
    host_outbound,
    node_vantage,
    observe_switches,
)
from .suite import (
    ChurnExploit,
    MnCorrelation,
    SizeFingerprint,
    TimingCorrelation,
    Watermark,
)
from .targeting import TargetRanking, rank_targets
from .tournament import frontier_json, run_scenario, run_tournament, score_strategy

__all__ = [
    "ATTACKS",
    "Attack",
    "AttackContext",
    "AttackResult",
    "ChannelTruth",
    "ChurnExploit",
    "MnCorrelation",
    "SizeFingerprint",
    "TimingCorrelation",
    "Watermark",
    "format_attack_table",
    "frontier_json",
    "get_attack",
    "host_outbound",
    "register_attack",
    "run_scenario",
    "run_tournament",
    "score_strategy",
    "correlate_timing_with_truth",
    "CorrelationResult",
    "GroundTruthCorrelation",
    "correlate_with_truth",
    "FlowSizeEstimate",
    "LeakReport",
    "LinkAnonymity",
    "EmpiricalAnonymity",
    "empirical_anonymity",
    "expected_uniform_accuracy",
    "link_anonymity",
    "walk_anonymity",
    "Observation",
    "ObservationPoint",
    "analyze_position",
    "anonymity_set_size",
    "correlate_at_mn",
    "correlate_by_timing",
    "interarrival_signature",
    "rate_similarity",
    "rank_targets",
    "TargetRanking",
    "estimate_flow_sizes",
    "linkage_success_rate",
    "node_vantage",
    "normalized_entropy",
    "observe_switches",
    "posterior_entropy",
    "size_estimate_error",
    "unlinkability_holds",
]
