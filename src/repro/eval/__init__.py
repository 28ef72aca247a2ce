"""Evaluation harness: recall-QPS sweeps, graph quality, reporting.

Reproduces the paper's measurement methodology (§7): recall@K vs QPS
curves generated by sweeping the search-effort knob (efs / L / nprobe),
distance-computation accounting (Table 3), time-to-index and index-size
reporting (Tables 4-5), per-level out-degrees (Table 6), and
predicate-subgraph quality statistics (Figure 13).
"""

from repro.eval.metrics import mean_recall_at_k, recall_at_k
from repro.eval.export import load_results, save_results, sweeps_to_record
from repro.eval.plots import ascii_curves
from repro.eval.runner import MethodSweep, SweepPoint, SweepRunner
from repro.eval.reporting import render_curve, render_sweeps, render_table
from repro.eval.stats import (
    GraphQuality,
    PercentileSummary,
    acorn_subgraph_quality,
    hnsw_graph_quality,
    percentile_summary,
    strongly_connected_components,
)

__all__ = [
    "GraphQuality",
    "MethodSweep",
    "PercentileSummary",
    "SweepPoint",
    "SweepRunner",
    "percentile_summary",
    "acorn_subgraph_quality",
    "ascii_curves",
    "hnsw_graph_quality",
    "load_results",
    "mean_recall_at_k",
    "recall_at_k",
    "render_curve",
    "render_sweeps",
    "render_table",
    "save_results",
    "sweeps_to_record",
    "strongly_connected_components",
]
