"""Evaluation metrics and coverage statistics (paper §VII)."""

from repro.eval.metrics import (
    DEFAULT_FER_THRESHOLD,
    absolute_percentage_errors,
    dape_histogram,
    false_estimation_rate,
    mean_absolute_percentage_error,
    summarize_errors,
    ErrorSummary,
)
from repro.eval.coverage import k_hop_coverage, coverage_report
from repro.eval.calibration import ThetaCalibrationResult, tune_theta

__all__ = [
    "ThetaCalibrationResult",
    "tune_theta",
    "DEFAULT_FER_THRESHOLD",
    "absolute_percentage_errors",
    "dape_histogram",
    "false_estimation_rate",
    "mean_absolute_percentage_error",
    "summarize_errors",
    "ErrorSummary",
    "k_hop_coverage",
    "coverage_report",
]
