"""Analysis: static checks on generated kernels and spaces, plus
post-hoc explanation of a setting.

The static-analysis subsystem (``diagnostics`` / ``cudalint`` /
``crosscheck`` / ``dataflow`` / ``concurrency`` / ``prover`` /
``prune`` / ``gate``) lints generated CUDA, verifies emitted source
against its :class:`~repro.codegen.plan.KernelPlan`, bounds each
kernel's memory behaviour and cross-validates the analytic model
against those bounds, race-lints the warm-worker task code, proves the
Table I constraint system consistent, and prunes provably-dominated
settings before evaluation; ``python -m repro.analysis --all --deep
--concurrency`` runs all of it over the whole suite.
"""

from repro.analysis.concurrency import lint_tree
from repro.analysis.crosscheck import crosscheck_kernel, extract_facts
from repro.analysis.cudalint import lint_kernel, parse_kernel
from repro.analysis.dataflow import DataflowSummary, analyze_dataflow
from repro.analysis.diagnostics import (
    RULES,
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Rule,
    Severity,
    SourceSpan,
    merge_reports,
    register_rule,
    to_sarif,
    write_sarif,
)
from repro.analysis.explain import SettingReport, explain_setting
from repro.analysis.gate import (
    DEFAULT_STRICT_EVERY,
    analyze_kernel,
    analyze_space,
    analyze_stencil,
    analyze_suite,
    gate_selected,
    strict_gate,
)
from repro.analysis.prover import ProofResult, prove_space
from repro.analysis.prune import StaticPruner, build_pruner

__all__ = [
    "RULES",
    "AnalysisError",
    "AnalysisReport",
    "DEFAULT_STRICT_EVERY",
    "DataflowSummary",
    "Diagnostic",
    "ProofResult",
    "Rule",
    "Severity",
    "SettingReport",
    "SourceSpan",
    "StaticPruner",
    "analyze_dataflow",
    "analyze_kernel",
    "analyze_space",
    "analyze_stencil",
    "analyze_suite",
    "build_pruner",
    "crosscheck_kernel",
    "explain_setting",
    "extract_facts",
    "gate_selected",
    "lint_kernel",
    "lint_tree",
    "merge_reports",
    "parse_kernel",
    "prove_space",
    "register_rule",
    "strict_gate",
    "to_sarif",
    "write_sarif",
]
