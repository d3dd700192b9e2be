"""WAIC scoring: the mean log-likelihood across sampled architectures
penalized by its variance, its Monte-Carlo training objective, and an exact
enumeration reference for small search spaces. Every sampled architecture
weighs 1/M, so the estimate converges to the exact score under the
distribution the architectures were drawn from.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CapacityError, ConfigError, DataError
from .search_space import ArchDistribution, ArchSample, sample_discrete
from .seeding import child_seed


@dataclass
class LogLikMatrix:
    """Per-sample, per-architecture log-likelihoods."""

    values: np.ndarray  # (N samples, M architectures)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise DataError(f"log-likelihood matrix must be 2-D and nonempty, got {self.values.shape}")
        bad = np.argwhere(~np.isfinite(self.values))
        if len(bad):
            i, j = bad[0]
            raise DataError(f"non-finite log-likelihood at sample {i}, architecture {j}")

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]

    @property
    def num_models(self) -> int:
        return self.values.shape[1]


@dataclass
class WaicReport:
    """Per-sample moments of the log-likelihood across models and the score
    mean - variance; higher means more in-distribution."""

    mean: np.ndarray
    variance: np.ndarray
    score: np.ndarray

    def aggregate(self, how: str = "sum") -> float:
        if how == "sum":
            return float(self.score.sum())
        if how == "mean":
            return float(self.score.mean())
        raise ConfigError(f"unknown aggregate {how!r} (use 'sum' or 'mean')")


def moments(mat):
    """Per-row mean across the M architecture columns of an (N, M) ndarray
    or Tensor, then the population variance about it; each column weighs
    1/M. Only ops that both types support, so that scores and the search
    objective compute the same numbers."""
    n, m = mat.shape
    mean = mat.sum(axis=1) * (1.0 / m)
    centered = mat - mean.reshape(n, 1)
    return mean, (centered * centered).sum(axis=1) * (1.0 / m)


def waic_per_sample(ll: LogLikMatrix) -> WaicReport:
    mean, var = moments(ll.values)
    return WaicReport(mean=mean, variance=var, score=mean - var)


def waic_mc_objective(loglik_columns) -> Tensor:
    """Training loss: negative sum over the batch of (mean - variance) of the
    per-architecture log-likelihood columns, by `moments`.

    Columns are autodiff tensors of shape (batch,); the returned scalar is
    differentiable through every column.
    """
    m = len(loglik_columns)
    if m < 1:
        raise ConfigError("need at least one architecture sample")
    cols = [c if isinstance(c, Tensor) else Tensor(c) for c in loglik_columns]
    n = cols[0].shape[0]
    for c in cols:
        if c.shape != (n,):
            raise DataError(f"log-likelihood columns disagree in shape: {c.shape} vs ({n},)")
    mean, var = moments(ad.concat([c.reshape(n, 1) for c in cols], axis=1))
    return -(mean - var).sum()


@dataclass(frozen=True)
class ExactWaic:
    mean: float
    variance: float

    @property
    def score(self) -> float:
        return self.mean - self.variance


MAX_ENUMERABLE = 10_000


def enumerate_architectures(dist: ArchDistribution):
    """Yield (discrete ArchSample, probability) over the whole space."""
    rows, k = dist.logits.shape
    total = k**rows
    if total > MAX_ENUMERABLE:
        raise CapacityError(
            f"{total} architectures exceed the enumerable limit of {MAX_ENUMERABLE}"
        )
    probs = dist.probs()
    for combo in itertools.product(range(k), repeat=rows):
        w = np.zeros((rows, k))
        w[np.arange(rows), combo] = 1.0
        p = float(np.prod(probs[np.arange(rows), combo]))
        yield ArchSample("discrete", w), p


def waic_exact(dist: ArchDistribution, loglik_oracle) -> ExactWaic:
    """Exact score by full enumeration: the oracle maps a discrete sample to
    its dataset-average log-likelihood."""
    mean = 0.0
    second = 0.0
    for arch, p in enumerate_architectures(dist):
        ll = float(loglik_oracle(arch))
        mean += p * ll
        second += p * ll * ll
    var = max(second - mean * mean, 0.0)
    return ExactWaic(mean=mean, variance=var)


def waic_mc_estimate(dist: ArchDistribution, loglik_oracle, num_samples: int, seed: int) -> float:
    """Monte-Carlo counterpart of waic_exact: sample M architectures and score
    with the 1/M mean and population variance."""
    if num_samples < 1:
        raise ConfigError("need at least one architecture sample")
    lls = np.empty(num_samples)
    for j in range(num_samples):
        arch = sample_discrete(dist, child_seed(seed, "mc", j))
        lls[j] = float(loglik_oracle(arch))
    return float(lls.mean() - lls.var())


# -- CSV interchange -----------------------------------------------------------


def write_loglik_csv(ll: LogLikMatrix, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id"] + [f"arch_{j}" for j in range(ll.num_models)])
        for i, row in enumerate(ll.values):
            writer.writerow([i] + [repr(float(v)) for v in row])


def read_loglik_csv(path) -> LogLikMatrix:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["sample_id"]:
        raise DataError(f"{path}: expected a log-likelihood CSV with a sample_id header")
    values = [[float(v) for v in row[1:]] for row in rows[1:]]
    return LogLikMatrix(np.asarray(values))


def write_report_csv(report: WaicReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "mean", "variance", "waic"])
        for i in range(len(report.score)):
            writer.writerow(
                [i, repr(float(report.mean[i])), repr(float(report.variance[i])),
                 repr(float(report.score[i]))]
            )


def read_report_csv(path) -> WaicReport:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable CSV file: {exc}") from exc
    if not rows or rows[0] != ["sample_id", "mean", "variance", "waic"]:
        raise DataError(f"{path}: expected a WAIC report CSV header")
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: empty WAIC report")
    try:  # a short row makes the array ragged, and ragged arrays raise ValueError
        mean, var, score = np.array([[float(v) for v in r[1:4]] for r in body]).T.copy()
    except ValueError as exc:
        raise DataError(f"{path}: malformed WAIC report row: {exc}") from exc
    return WaicReport(mean=mean, variance=var, score=score)
