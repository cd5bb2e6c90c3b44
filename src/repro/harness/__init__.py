"""Experiment harness: scale profiles, runners, metrics, and reporting."""

from repro.harness.profiles import ScaleProfile, DEFAULT_PROFILE, SMALL_PROFILE
from repro.harness.metrics import (
    CompactionSummary,
    WorkloadResult,
    bands_written_per_compaction,
    compaction_span,
    contiguous_output_fraction,
    output_offsets_per_compaction,
    summarize_compactions,
)
from repro.harness.runner import ExperimentRunner, STORE_KINDS
from repro.harness.report import render_table, normalize
from repro.harness.compare import ComparisonResult, SampleStats, compare
from repro.harness.analysis import analyze, stats_string

__all__ = [
    "CompactionSummary",
    "ComparisonResult",
    "SampleStats",
    "analyze",
    "compare",
    "stats_string",
    "DEFAULT_PROFILE",
    "ExperimentRunner",
    "STORE_KINDS",
    "ScaleProfile",
    "SMALL_PROFILE",
    "WorkloadResult",
    "bands_written_per_compaction",
    "compaction_span",
    "contiguous_output_fraction",
    "normalize",
    "output_offsets_per_compaction",
    "render_table",
    "summarize_compactions",
]
