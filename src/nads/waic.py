"""WAIC scoring: the mean log-likelihood across sampled architectures
penalized by its variance, its Monte-Carlo training objective, and an exact
enumeration reference for small search spaces. Every sampled architecture
weighs 1/M, so the estimate converges to the exact score under the
distribution the architectures were drawn from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import read_table, write_table
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
    their row of log-likelihoods by `moments`, as `waic_per_sample` does."""
    if num_samples < 1:
        raise ConfigError("need at least one architecture sample")
    lls = np.empty((1, num_samples))
    for j in range(num_samples):
        arch = sample_discrete(dist, child_seed(seed, "mc", j))
        lls[0, j] = float(loglik_oracle(arch))
    mean, var = moments(lls)
    return float(mean[0] - var[0])


# -- CSV interchange -----------------------------------------------------------

REPORT_HEADER = ["sample_id", "mean", "variance", "waic"]


def write_loglik_csv(ll: LogLikMatrix, path) -> None:
    header = ["sample_id"] + [f"arch_{j}" for j in range(ll.num_models)]
    write_table(path, header, [range(ll.num_samples), *ll.values.T])


def read_loglik_csv(path) -> LogLikMatrix:
    header, rows = read_table(path)
    if header is None or header[:1] != ["sample_id"]:
        raise DataError(f"{path}: expected a log-likelihood CSV with a sample_id header")
    return LogLikMatrix(rows[:, 1:])


def write_report_csv(report: WaicReport, path) -> None:
    write_table(path, REPORT_HEADER,
                [range(len(report.score)), report.mean, report.variance, report.score])


def read_report_csv(path) -> WaicReport:
    header, rows = read_table(path)
    if header != REPORT_HEADER:
        raise DataError(f"{path}: expected the WAIC report header {','.join(REPORT_HEADER)}")
    if not len(rows):
        raise DataError(f"{path}: empty WAIC report")
    _, mean, var, score = rows.T.copy()
    return WaicReport(mean=mean, variance=var, score=score)
