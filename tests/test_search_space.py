"""Sampling, cell evaluation, and distribution bookkeeping, checked against
fresh Gumbel-max / Gumbel-Softmax reimplementations and finite differences."""

import numpy as np
import pytest

from nads import autodiff as ad
from nads.autodiff import Tensor
from nads.errors import ConfigError, ShapeError, UsageError
from nads.search_space import (
    OP_KINDS,
    ArchDistribution,
    ArchSample,
    Cell,
    CellTopology,
    arch_log_prob,
    gumbel_noise,
    relaxed_weights,
    sample_discrete,
    sample_relaxed,
    serialize_architecture,
)

from oracles import finite_diff_grad, gumbel_softmax_reference

SINGLE = CellTopology(num_nodes=2, edges=((0, 1),))
CHAIN = CellTopology(num_nodes=3, edges=((0, 1), (1, 2)))


def single_edge_dist(probs, tau=1.0):
    logits = np.log(np.asarray(probs, dtype=np.float64)).reshape(1, -1)
    ops = OP_KINDS[: len(probs)]
    return ArchDistribution(logits, tau, ops, SINGLE, 1)


class TestTopology:
    def test_default_is_valid_dag(self):
        topo = CellTopology()
        assert topo.num_edges == 6

    @pytest.mark.parametrize("edges", [((1, 0),), ((0, 0),), ((0, 1), (0, 1))])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ConfigError):
            CellTopology(num_nodes=2, edges=edges)

    def test_unreached_node_rejected(self):
        with pytest.raises(ConfigError):
            CellTopology(num_nodes=3, edges=((0, 2),))


class TestSampleRelaxed:
    def test_high_temperature_is_uniform(self):
        dist = ArchDistribution.uniform(OP_KINDS, SINGLE, 1, tau=1e6)
        for seed in range(50):
            w = sample_relaxed(dist, seed).weights
            np.testing.assert_allclose(w, 1.0 / 9.0, atol=1e-3)
            assert abs(w.sum() - 1.0) < 1e-9

    def test_matches_reference_formula(self):
        dist = ArchDistribution.uniform(OP_KINDS, CHAIN, 2, tau=0.7)
        rng_logits = np.random.default_rng(0)
        dist.logits += rng_logits.normal(0, 2.0, dist.logits.shape)
        for seed in (1, 2, 3):
            sample = sample_relaxed(dist, seed)
            noise = gumbel_noise(dist.logits.shape, seed)
            for row in range(dist.logits.shape[0]):
                want = gumbel_softmax_reference(dist.logits[row], noise[row], 0.7)
                np.testing.assert_allclose(sample.weights[row], want, atol=1e-12)

    def test_low_temperature_near_one_hot(self):
        # At tau = 0.01 the relaxed weights almost always concentrate on one
        # op. The expected fraction is frozen from the independent oracle run
        # over the same 10^4 seeds (about 94% with 9 ops).
        dist = ArchDistribution.uniform(OP_KINDS, SINGLE, 1, tau=0.01)
        n = 10_000
        got = 0
        want = 0
        for seed in range(n):
            w = sample_relaxed(dist, seed).weights[0]
            got += w.max() > 0.999
            ref = gumbel_softmax_reference(dist.logits[0], gumbel_noise((1, 9), seed)[0], 0.01)
            want += ref.max() > 0.999
        assert got == want
        assert got / n > 0.9

    def test_argmax_frequency_tracks_probabilities(self):
        # tau = 0.05 with phi = (0.7, 0.3): the relaxed argmax is the
        # Gumbel-max categorical draw, so op 0 wins with frequency 0.7.
        dist = single_edge_dist([0.7, 0.3], tau=0.05)
        n = 100_000
        wins = sum(int(np.argmax(sample_relaxed(dist, s).weights[0]) == 0) for s in range(n))
        assert wins / n == pytest.approx(0.7, abs=0.01)

    def test_deterministic_and_simplex(self):
        dist = ArchDistribution.uniform(OP_KINDS, CHAIN, 1, tau=1.5)
        a = sample_relaxed(dist, 99)
        b = sample_relaxed(dist, 99)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert np.all(a.weights >= 0)
        np.testing.assert_allclose(a.weights.sum(axis=1), 1.0, atol=1e-9)

    def test_nonpositive_temperature_rejected(self):
        dist = ArchDistribution.uniform(OP_KINDS, SINGLE, 1, tau=1.0)
        with pytest.raises(ConfigError):
            relaxed_weights(Tensor(dist.logits), np.zeros_like(dist.logits), 0.0)
        with pytest.raises(ConfigError):
            ArchDistribution.uniform(OP_KINDS, SINGLE, 1, tau=-1.0)

    def test_log_clamp_keeps_weights_finite(self):
        logits = np.array([[0.0, -1000.0]])
        dist = ArchDistribution(logits, 1.0, ("identity", "zero"), SINGLE, 1)
        w = sample_relaxed(dist, 0).weights
        assert np.isfinite(w).all()


class TestSampleDiscrete:
    def test_near_degenerate_categorical(self):
        logits = np.array([[30.0, -30.0, -30.0]])
        dist = ArchDistribution(logits, 1.0, OP_KINDS[:3], SINGLE, 1)
        n = 10_000
        wins = sum(int(sample_discrete(dist, s).argmax_ops()[0] == 0) for s in range(n))
        assert wins / n > 0.9999

    def test_uniform_frequencies_chi_squared(self):
        dist = ArchDistribution.uniform(OP_KINDS, SINGLE, 1)
        n = 100_000
        counts = np.zeros(9)
        for s in range(n):
            counts[sample_discrete(dist, s).argmax_ops()[0]] += 1
        freqs = counts / n
        np.testing.assert_allclose(freqs, 1.0 / 9.0, atol=0.005)
        chi2 = float((((counts - n / 9.0) ** 2) / (n / 9.0)).sum())
        assert chi2 < 26.12  # chi^2_{8, 0.001}

    def test_same_seed_identical(self):
        dist = ArchDistribution.uniform(OP_KINDS, CHAIN, 2)
        a, b = sample_discrete(dist, 5), sample_discrete(dist, 5)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.mode == "discrete"
        assert set(np.unique(a.weights)) <= {0.0, 1.0}


class TestArchLogProb:
    def test_uniform_logits_closed_form(self):
        dist = ArchDistribution.uniform(OP_KINDS, CHAIN, 2)
        sample = sample_discrete(dist, 1)
        assert arch_log_prob(dist, sample) == pytest.approx(-4 * np.log(9.0), abs=1e-12)

    def test_single_edge_hand_value(self):
        dist = single_edge_dist([0.7, 0.3])
        w = np.array([[1.0, 0.0]])
        assert arch_log_prob(dist, ArchSample("discrete", w)) == pytest.approx(np.log(0.7))

    def test_matches_empirical_frequency(self):
        dist = single_edge_dist([0.55, 0.25, 0.2])
        target = ArchSample("discrete", np.array([[0.0, 1.0, 0.0]]))
        n = 100_000
        hits = sum(int(sample_discrete(dist, s).argmax_ops()[0] == 1) for s in range(n))
        assert np.exp(arch_log_prob(dist, target)) == pytest.approx(hits / n, abs=0.01)

    def test_relaxed_sample_rejected(self):
        dist = ArchDistribution.uniform(OP_KINDS, SINGLE, 1)
        with pytest.raises(UsageError):
            arch_log_prob(dist, sample_relaxed(dist, 0))



class TestCellForward:
    def make_cell(self, ops, channels=2, topology=CHAIN, seed=0):
        return Cell(channels, channels, topology, ops, np.random.default_rng(seed))

    def test_all_zero_arch_gives_zero_scale_logits_and_shift(self):
        cell = self.make_cell(("identity", "zero"))
        rows = [np.array([0.0, 1.0])] * 2
        h = np.random.default_rng(1).normal(size=(2, 2, 3, 3))
        s, t = cell.forward(Tensor(h), rows, "discrete")
        np.testing.assert_array_equal(s.data, 0.0)
        np.testing.assert_array_equal(t.data, 0.0)

    def test_identity_single_edge_is_projection_of_input(self):
        cell = Cell(2, 2, SINGLE, ("identity", "zero"), np.random.default_rng(2))
        rng = np.random.default_rng(3)
        cell.proj_weight.data = rng.normal(size=cell.proj_weight.shape)
        cell.proj_bias.data = rng.normal(size=cell.proj_bias.shape)
        h = rng.normal(size=(2, 2, 2, 2))
        s, t = cell.forward(Tensor(h), [np.array([1.0, 0.0])], "discrete")
        want = np.einsum("oc,nchw->nohw", cell.proj_weight.data, h) + cell.proj_bias.data.reshape(
            1, -1, 1, 1
        )
        np.testing.assert_allclose(s.data, want[:, :2], atol=1e-12)
        np.testing.assert_allclose(t.data, want[:, 2:], atol=1e-12)

    def test_relaxed_half_identity_half_zero(self):
        cell = Cell(2, 2, SINGLE, ("identity", "zero"), np.random.default_rng(4))
        rng = np.random.default_rng(5)
        cell.proj_weight.data = rng.normal(size=cell.proj_weight.shape)
        h = rng.normal(size=(1, 2, 2, 2))
        s_half, t_half = cell.forward(Tensor(h), [np.array([0.5, 0.5])], "relaxed")
        s_full, t_full = cell.forward(Tensor(h), [np.array([1.0, 0.0])], "discrete")
        np.testing.assert_allclose(s_half.data, 0.5 * s_full.data, atol=1e-12)
        np.testing.assert_allclose(t_half.data, 0.5 * t_full.data, atol=1e-12)

    def test_mixture_linearity_per_edge_all_ops(self):
        # On a single edge the relaxed output is exactly the weight-weighted
        # sum of the single-op outputs, max pooling included.
        ops = OP_KINDS
        cell = Cell(3, 3, SINGLE, ops, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        cell.proj_weight.data = rng.normal(0, 0.3, size=cell.proj_weight.shape)
        h = rng.normal(size=(2, 3, 4, 4))
        w = rng.dirichlet(np.ones(len(ops)))
        s_mix, t_mix = cell.forward(Tensor(h), [w], "relaxed")
        s_acc = np.zeros_like(s_mix.data)
        t_acc = np.zeros_like(t_mix.data)
        for k in range(len(ops)):
            s_one, t_one = cell.forward(Tensor(h), [np.eye(len(ops))[k]], "discrete")
            s_acc += w[k] * (s_one.data - cell.proj_bias.data[:3].reshape(1, -1, 1, 1))
            t_acc += w[k] * (t_one.data - cell.proj_bias.data[3:].reshape(1, -1, 1, 1))
        s_acc += cell.proj_bias.data[:3].reshape(1, -1, 1, 1)
        t_acc += cell.proj_bias.data[3:].reshape(1, -1, 1, 1)
        np.testing.assert_allclose(s_mix.data, s_acc, atol=1e-10)
        np.testing.assert_allclose(t_mix.data, t_acc, atol=1e-10)

    def test_mixture_factorizes_over_chain_of_linear_ops(self):
        # With max pooling excluded every candidate op is linear, so the
        # relaxed DAG output factorizes into the per-edge weight products.
        ops = ("avg_pool_3x3", "skip_connect", "sep_conv_3x3", "dil_conv_3x3",
               "identity", "zero")
        cell = self.make_cell(ops, channels=3)
        rng = np.random.default_rng(8)
        cell.proj_weight.data = rng.normal(0, 0.3, size=cell.proj_weight.shape)
        cell.proj_bias.data = rng.normal(0, 0.3, size=cell.proj_bias.shape)
        h = rng.normal(size=(2, 3, 4, 4))
        weights = rng.dirichlet(np.ones(len(ops)), size=2)
        s_mix, t_mix = cell.forward(Tensor(h), list(weights), "relaxed")
        s_acc = np.zeros_like(s_mix.data)
        t_acc = np.zeros_like(t_mix.data)
        bias_s = cell.proj_bias.data[:3].reshape(1, -1, 1, 1)
        bias_t = cell.proj_bias.data[3:].reshape(1, -1, 1, 1)
        for e0 in range(len(ops)):
            for e1 in range(len(ops)):
                rows = [np.eye(len(ops))[e0], np.eye(len(ops))[e1]]
                s_one, t_one = cell.forward(Tensor(h), rows, "discrete")
                coeff = weights[0][e0] * weights[1][e1]
                s_acc += coeff * (s_one.data - bias_s)
                t_acc += coeff * (t_one.data - bias_t)
        np.testing.assert_allclose(s_mix.data, s_acc + bias_s, atol=1e-10)
        np.testing.assert_allclose(t_mix.data, t_acc + bias_t, atol=1e-10)

    @pytest.mark.parametrize("op", OP_KINDS)
    def test_every_op_preserves_shape(self, op):
        rng = np.random.default_rng(8)
        for shape in [(1, 1, 1, 1), (2, 3, 4, 5), (1, 2, 7, 3)]:
            c = shape[1]
            cell = Cell(c, c, SINGLE, (op,), np.random.default_rng(9))
            h = rng.normal(size=shape)
            out = cell._edge_output(0, Tensor(h), np.array([1.0]), "discrete")
            if op == "zero":
                assert out is None
            else:
                assert out.shape == shape

    def test_channel_mismatch_raises(self):
        cell = self.make_cell(("identity", "zero"))
        with pytest.raises(ShapeError):
            cell.forward(Tensor(np.zeros((1, 3, 2, 2))), [np.array([1.0, 0.0])] * 2, "discrete")


class TestGradients:
    def test_reparameterization_gradient_matches_fd(self):
        # d(relaxed weights)/d(logits) at fixed Gumbel noise.
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(3, 4))
        noise = gumbel_noise((3, 4), 11)
        probe = rng.normal(size=(3, 4))

        def scalar(lg):
            with ad.no_grad():
                w = relaxed_weights(Tensor(lg), noise, 0.8)
            return float((w.data * probe).sum())

        t = Tensor(logits.copy(), requires_grad=True)
        (relaxed_weights(t, noise, 0.8) * Tensor(probe)).sum().backward()
        fd = finite_diff_grad(scalar, logits, h=1e-4)
        np.testing.assert_allclose(t.grad, fd, rtol=1e-4, atol=1e-7)

    def test_relaxed_to_discrete_tv_monotone(self):
        # mean total-variation distance between relaxed weights and their
        # one-hot argmax is non-increasing along a cooling temperature ladder.
        dist = ArchDistribution.uniform(OP_KINDS, SINGLE, 1)
        taus = [1.5, 0.5, 0.1, 0.01]
        tvs = []
        for tau in taus:
            d = ArchDistribution(dist.logits, tau, dist.ops, dist.topology, 1)
            acc = 0.0
            for seed in range(1000):
                w = sample_relaxed(d, seed).weights[0]
                one_hot = np.eye(len(w))[np.argmax(w)]
                acc += 0.5 * np.abs(w - one_hot).sum()
            tvs.append(acc / 1000)
        assert all(a >= b - 1e-12 for a, b in zip(tvs, tvs[1:])), tvs


class TestSerialization:
    def test_distribution_lists_probability_rows(self):
        dist = single_edge_dist([0.75, 0.25])
        text = serialize_architecture(dist)
        assert text.startswith("edge 0->1: ")
        probs = [float(v) for v in text.split(": ")[1].split()]
        np.testing.assert_allclose(probs, [0.75, 0.25], atol=1e-6)

    def test_multi_group_headers(self):
        dist = ArchDistribution.uniform(("identity", "zero"), SINGLE, 2)
        text = serialize_architecture(dist)
        assert "# cell 0" in text and "# cell 1" in text
