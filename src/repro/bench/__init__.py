"""Benchmark harness: testbed, protocol drivers, per-figure experiments."""

from .drivers import Session, open_mic, open_ssl, open_tcp, open_tor
from .experiments import (
    fig7_route_setup,
    fig8_latency,
    fig9a_throughput_vs_path_length,
    fig9b_throughput_vs_flows,
    fig9c_cpu_usage,
    mic_fat_tree_scenario,
    scalability_routing_calculation,
    scalability_vs_fabric,
)
from .harness import FigureResult, fmt_si, run_process
from .hybrid_scenario import HybridScenarioResult, fat_tree_path, run_hybrid_scenario
from .shard_scenario import ShardChurnResult, run_shard_churn
from .testbed import Testbed

__all__ = [
    "FigureResult",
    "HybridScenarioResult",
    "Session",
    "Testbed",
    "fat_tree_path",
    "fig7_route_setup",
    "fig8_latency",
    "fig9a_throughput_vs_path_length",
    "fig9b_throughput_vs_flows",
    "fig9c_cpu_usage",
    "fmt_si",
    "mic_fat_tree_scenario",
    "open_mic",
    "open_ssl",
    "open_tcp",
    "open_tor",
    "run_hybrid_scenario",
    "run_process",
    "run_shard_churn",
    "ShardChurnResult",
    "scalability_routing_calculation",
    "scalability_vs_fabric",
]
