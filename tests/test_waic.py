"""WAIC moments, the Monte-Carlo objective, and the exact enumeration
reference, with hand-computed and brute-force-verified expected values."""

import numpy as np
import pytest

from nads.autodiff import Tensor
from nads.errors import CapacityError, ConfigError, DataError
from nads.search_space import ArchDistribution, CellTopology
from nads.waic import (
    LogLikMatrix,
    enumerate_architectures,
    read_loglik_csv,
    read_report_csv,
    waic_exact,
    waic_mc_estimate,
    waic_mc_objective,
    waic_per_sample,
    write_loglik_csv,
    write_report_csv,
)

from oracles import finite_diff_grad, moments_bruteforce

SINGLE = CellTopology(num_nodes=2, edges=((0, 1),))


def two_arch_dist(p0=0.5, tau=1.0):
    logits = np.log(np.array([[p0, 1.0 - p0]]))
    return ArchDistribution(logits, tau, ("identity", "zero"), SINGLE, 1)


class TestPerSample:
    def test_single_model_score_is_loglik(self):
        ll = LogLikMatrix(np.array([[-1.0], [-2.5], [0.3]]))
        report = waic_per_sample(ll)
        np.testing.assert_array_equal(report.variance, 0.0)
        np.testing.assert_array_equal(report.score, ll.values[:, 0])

    def test_zero_row(self):
        report = waic_per_sample(LogLikMatrix(np.array([[0.0, 0.0, 0.0]])))
        assert report.mean[0] == 0.0
        assert report.variance[0] == 0.0
        assert report.score[0] == 0.0

    def test_hand_arithmetic_row(self):
        # row (-1, -3), each column weighs 1/2: mean -2, variance 1, score -3.
        report = waic_per_sample(LogLikMatrix(np.array([[-1.0, -3.0]])))
        assert report.mean[0] == pytest.approx(-2.0)
        assert report.variance[0] == pytest.approx(1.0)
        assert report.score[0] == pytest.approx(-3.0)

    def test_matches_bruteforce_moments(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(6, 5))
        report = waic_per_sample(LogLikMatrix(values))
        mean, var = moments_bruteforce(values)
        np.testing.assert_allclose(report.mean, mean, atol=1e-12)
        np.testing.assert_allclose(report.variance, var, atol=1e-12)

    def test_bit_identical_to_mc_objective(self):
        # Scores and the search objective share one estimator: the objective
        # on the columns is minus the sum of the per-sample scores, exactly.
        rng = np.random.default_rng(1)
        values = rng.normal(size=(8, 3))
        report = waic_per_sample(LogLikMatrix(values))
        loss = waic_mc_objective([Tensor(col) for col in values.T])
        assert loss.item() == -report.score.sum()

    def test_variance_nonnegative_and_score_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            values = rng.normal(scale=10, size=(4, rng.integers(1, 7)))
            report = waic_per_sample(LogLikMatrix(values))
            assert (report.variance >= 0).all()
            assert (report.score <= report.mean + 1e-15).all()

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 4))
        base = waic_per_sample(LogLikMatrix(values))
        shifted = waic_per_sample(LogLikMatrix(values + 7.25))
        np.testing.assert_allclose(shifted.mean, base.mean + 7.25, atol=1e-12)
        np.testing.assert_allclose(shifted.variance, base.variance, atol=1e-12)
        np.testing.assert_allclose(shifted.score, base.score + 7.25, atol=1e-12)

    def test_errors(self):
        with pytest.raises(DataError):
            LogLikMatrix(np.zeros((0, 2)))
        with pytest.raises(DataError, match="sample 1, architecture 0"):
            LogLikMatrix(np.array([[0.0, 1.0], [np.nan, 2.0]]))


class TestMcObjective:
    def test_identical_columns_have_zero_variance(self):
        col = Tensor(np.array([-1.0, -2.0, -3.0]))
        loss = waic_mc_objective([col, Tensor(col.data.copy())])
        assert loss.item() == pytest.approx(6.0)  # -sum(mean) with var 0

    def test_two_column_closed_form(self):
        # loss contribution per sample: -((a+b)/2 - (a-b)^2/4)
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=3), rng.normal(size=3)
        loss = waic_mc_objective([Tensor(a), Tensor(b)])
        want = -np.sum((a + b) / 2.0 - (a - b) ** 2 / 4.0)
        assert loss.item() == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        cols = rng.normal(size=(3, 4))  # 3 architectures, 4 samples

        tensors = [Tensor(c.copy(), requires_grad=True) for c in cols]
        waic_mc_objective(tensors).backward()

        for j in range(3):
            def f(c, j=j):
                vals = [x.copy() for x in cols]
                vals[j] = c
                return waic_mc_objective([Tensor(v) for v in vals]).item()

            fd = finite_diff_grad(f, cols[j], h=1e-6)
            np.testing.assert_allclose(tensors[j].grad, fd, rtol=1e-6, atol=1e-9)

    def test_single_column_allowed_but_empty_rejected(self):
        loss = waic_mc_objective([Tensor(np.array([-2.0]))])
        assert loss.item() == pytest.approx(2.0)
        with pytest.raises(ConfigError):
            waic_mc_objective([])

    def test_mismatched_columns_rejected(self):
        with pytest.raises(DataError):
            waic_mc_objective([Tensor(np.zeros(2)), Tensor(np.zeros(3))])


class TestExact:
    def test_hand_enumeration_two_archs(self):
        # phi = (0.5, 0.5) with per-arch mean log-likelihoods (-1, -3):
        # mean -2, variance 1, score -3.
        dist = two_arch_dist(0.5)
        oracle = lambda arch: -1.0 if arch.argmax_ops()[0] == 0 else -3.0
        exact = waic_exact(dist, oracle)
        assert exact.mean == pytest.approx(-2.0)
        assert exact.variance == pytest.approx(1.0)
        assert exact.score == pytest.approx(-3.0)

    def test_degenerate_distribution(self):
        logits = np.array([[0.0, -745.0]])  # second op has probability ~5e-324
        dist = ArchDistribution(logits, 1.0, ("identity", "zero"), SINGLE, 1)
        oracle = lambda arch: -1.0 if arch.argmax_ops()[0] == 0 else -3.0
        exact = waic_exact(dist, oracle)
        assert exact.mean == pytest.approx(-1.0)
        assert exact.variance == pytest.approx(0.0, abs=1e-12)

    def test_enumeration_probabilities_sum_to_one(self):
        logits = np.random.default_rng(6).normal(size=(3, 3))
        dist = ArchDistribution(logits, 1.0, ("identity", "zero", "avg_pool_3x3"),
                                CellTopology(3, ((0, 1), (0, 2), (1, 2))), 1)
        total = sum(p for _, p in enumerate_architectures(dist))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_capacity_limit(self):
        # 18 edges with 2 ops: 2^18 = 262144 architectures, over the limit.
        dist = ArchDistribution.uniform(("identity", "zero"), CellTopology(), 3)
        with pytest.raises(CapacityError):
            list(enumerate_architectures(dist))

    def test_mc_estimate_within_three_standard_errors(self):
        dist = two_arch_dist(0.35)
        oracle = lambda arch: -0.5 if arch.argmax_ops()[0] == 0 else -4.0
        exact = waic_exact(dist, oracle).score
        estimates = np.array(
            [waic_mc_estimate(dist, oracle, 4000, seed) for seed in range(32)]
        )
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) < 3 * se + 1e-3

    def test_mc_error_shrinks_with_sample_count(self):
        dist = two_arch_dist(0.5)
        oracle = lambda arch: -1.0 if arch.argmax_ops()[0] == 0 else -3.0
        exact = waic_exact(dist, oracle).score
        errors = []
        for m in (4, 16, 64, 256):
            errs = [abs(waic_mc_estimate(dist, oracle, m, seed) - exact) for seed in range(100)]
            errors.append(np.mean(errs))
        assert errors[0] > errors[-1]
        assert all(a >= b - 0.02 for a, b in zip(errors, errors[1:])), errors


class TestCsv:
    def test_loglik_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        ll = LogLikMatrix(rng.normal(size=(5, 3)))
        path = tmp_path / "ll.csv"
        write_loglik_csv(ll, path)
        header = path.read_text().splitlines()[0]
        assert header == "sample_id,arch_0,arch_1,arch_2"
        back = read_loglik_csv(path)
        np.testing.assert_array_equal(back.values, ll.values)

    def test_report_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        report = waic_per_sample(LogLikMatrix(rng.normal(size=(4, 2))))
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        assert path.read_text().splitlines()[0] == "sample_id,mean,variance,waic"
        back = read_report_csv(path)
        np.testing.assert_array_equal(back.score, report.score)
        np.testing.assert_array_equal(back.mean, report.mean)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            read_loglik_csv(path)
        with pytest.raises(DataError):
            read_report_csv(path)
