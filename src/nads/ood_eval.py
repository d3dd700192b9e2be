"""Detection metrics over per-sample scores: ROC/PR curves, AUROC, AUPR,
FPR at a target TPR, and shared-bin histograms.

In-distribution is the positive class and a higher score means "more
in-distribution"; that orientation is fixed so a silently inverted metric
cannot masquerade as a good one. Thresholds sweep the distinct score values
descending, classifying positive at score >= threshold, with tied scores
grouped into a single step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import write_table
from .errors import ConfigError, DataError

MAX_BINS = 10_000  # histogram bins; the edges and counts are allocated up front


@dataclass
class ScoredSets:
    in_scores: np.ndarray
    out_scores: np.ndarray

    def __post_init__(self):
        self.in_scores = np.asarray(self.in_scores, dtype=np.float64).ravel()
        self.out_scores = np.asarray(self.out_scores, dtype=np.float64).ravel()
        if self.in_scores.size == 0 or self.out_scores.size == 0:
            raise DataError("both score sets must be nonempty")
        if not (np.isfinite(self.in_scores).all() and np.isfinite(self.out_scores).all()):
            raise DataError("scores must be finite")


def _threshold_counts(s: ScoredSets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct thresholds (descending) with counts of in/out scores >= each."""
    thresholds = np.unique(np.concatenate([s.in_scores, s.out_scores]))[::-1]
    in_sorted = np.sort(s.in_scores)
    out_sorted = np.sort(s.out_scores)
    tp = s.in_scores.size - np.searchsorted(in_sorted, thresholds, side="left")
    fp = s.out_scores.size - np.searchsorted(out_sorted, thresholds, side="left")
    return thresholds, tp.astype(np.float64), fp.astype(np.float64)


def roc_curve(s: ScoredSets) -> list[tuple[float, float]]:
    """(FPR, TPR) points from (0,0) to (1,1), one step per distinct score."""
    _, tp, fp = _threshold_counts(s)
    tpr = tp / s.in_scores.size
    fpr = fp / s.out_scores.size
    return [(0.0, 0.0)] + list(zip(fpr.tolist(), tpr.tolist()))


def auroc(s: ScoredSets) -> float:
    """Trapezoidal area under the ROC curve; equals the probability that a
    random in-score exceeds a random out-score, counting ties half."""
    pts = roc_curve(s)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def pr_curve(s: ScoredSets) -> list[tuple[float, float]]:
    """(recall, precision) points over descending thresholds."""
    _, tp, fp = _threshold_counts(s)
    recall = tp / s.in_scores.size
    precision = tp / (tp + fp)
    return list(zip(recall.tolist(), precision.tolist()))


def aupr(s: ScoredSets) -> float:
    """Area under precision-recall by step interpolation (each recall
    increment pays the precision at its own threshold)."""
    pts = pr_curve(s)
    area = 0.0
    prev_recall = 0.0
    for recall, precision in pts:
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def fpr_at_tpr(s: ScoredSets, target: float = 0.95) -> float:
    """Smallest FPR among thresholds whose TPR reaches the target."""
    if not (0.0 < target <= 1.0):
        raise ConfigError(f"target TPR must be in (0, 1], got {target}")
    _, tp, fp = _threshold_counts(s)
    tpr = tp / s.in_scores.size
    fpr = fp / s.out_scores.size
    eligible = fpr[tpr >= target]
    return float(eligible.min())


def histogram(in_scores, out_scores, num_bins: int = 30):
    """Shared equal-width binning over the joint range of both sets.

    Returns (edges, counts_in, counts_out); a degenerate range collapses to
    a single bin holding everything. At most MAX_BINS bins.
    """
    if not 1 <= num_bins <= MAX_BINS:
        raise ConfigError(f"need between 1 and {MAX_BINS} bins, got {num_bins}")
    a = np.asarray(in_scores, dtype=np.float64).ravel()
    b = np.asarray(out_scores, dtype=np.float64).ravel()
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        edges = np.array([lo, hi])
    else:
        edges = np.linspace(lo, hi, num_bins + 1)
    counts_in, _ = np.histogram(a, bins=edges)
    counts_out, _ = np.histogram(b, bins=edges)
    return edges, counts_in, counts_out


@dataclass
class DetectionReport:
    fpr_at_95_tpr: float
    auroc: float
    aupr: float
    roc_points: list[tuple[float, float]]
    pr_points: list[tuple[float, float]]
    hist_edges: np.ndarray = field(repr=False, default=None)
    hist_in: np.ndarray = field(repr=False, default=None)
    hist_out: np.ndarray = field(repr=False, default=None)


def evaluate(s: ScoredSets, num_bins: int = 30, tpr_target: float = 0.95) -> DetectionReport:
    edges, hist_in, hist_out = histogram(s.in_scores, s.out_scores, num_bins)
    return DetectionReport(
        fpr_at_95_tpr=fpr_at_tpr(s, tpr_target),
        auroc=auroc(s),
        aupr=aupr(s),
        roc_points=roc_curve(s),
        pr_points=pr_curve(s),
        hist_edges=edges,
        hist_in=hist_in,
        hist_out=hist_out,
    )


def write_report_files(report: DetectionReport, directory) -> dict[str, Path]:
    """Write report.json plus roc.csv, pr.csv, and hist.csv."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    paths = {}

    report_path = d / "report.json"
    report_path.write_text(
        json.dumps(
            {
                "fpr_at_95_tpr": report.fpr_at_95_tpr,
                "auroc": report.auroc,
                "aupr": report.aupr,
            },
            indent=2,
            sort_keys=True,
        )
    )
    paths["report"] = report_path

    paths["roc"] = d / "roc.csv"
    write_table(paths["roc"], ["fpr", "tpr"], zip(*report.roc_points))
    paths["pr"] = d / "pr.csv"
    write_table(paths["pr"], ["recall", "precision"], zip(*report.pr_points))
    paths["hist"] = d / "hist.csv"
    write_table(paths["hist"], ["bin_left", "bin_right", "count_in", "count_out"],
                [report.hist_edges[:-1], report.hist_edges[1:], report.hist_in, report.hist_out])
    return paths
