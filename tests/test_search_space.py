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
    _kept_taps,
)
from nads import search_space as ss

from oracles import finite_diff_grad, gumbel_softmax_reference, relaxed_edge_reference

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
        rows = ["zero"] * 2
        h = np.random.default_rng(1).normal(size=(2, 2, 3, 3))
        s, t = cell.forward(Tensor(h), rows)
        np.testing.assert_array_equal(s.data, 0.0)
        np.testing.assert_array_equal(t.data, 0.0)

    def test_identity_single_edge_is_projection_of_input(self):
        cell = Cell(2, 2, SINGLE, ("identity", "zero"), np.random.default_rng(2))
        rng = np.random.default_rng(3)
        cell.proj_weight.data = rng.normal(size=cell.proj_weight.shape)
        cell.proj_bias.data = rng.normal(size=cell.proj_bias.shape)
        h = rng.normal(size=(2, 2, 2, 2))
        s, t = cell.forward(Tensor(h), ["identity"])
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
        s_half, t_half = cell.forward(Tensor(h), [np.array([0.5, 0.5])])
        s_full, t_full = cell.forward(Tensor(h), ["identity"])
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
        s_mix, t_mix = cell.forward(Tensor(h), [w])
        s_acc = np.zeros_like(s_mix.data)
        t_acc = np.zeros_like(t_mix.data)
        for k in range(len(ops)):
            s_one, t_one = cell.forward(Tensor(h), [ops[k]])
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
        s_mix, t_mix = cell.forward(Tensor(h), list(weights))
        s_acc = np.zeros_like(s_mix.data)
        t_acc = np.zeros_like(t_mix.data)
        bias_s = cell.proj_bias.data[:3].reshape(1, -1, 1, 1)
        bias_t = cell.proj_bias.data[3:].reshape(1, -1, 1, 1)
        for e0 in range(len(ops)):
            for e1 in range(len(ops)):
                rows = [ops[e0], ops[e1]]
                s_one, t_one = cell.forward(Tensor(h), rows)
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
            out = cell._edge_output(0, Tensor(h), op)
            if op == "zero":
                assert out is None
            else:
                assert out.shape == shape

    def test_channel_mismatch_raises(self):
        cell = self.make_cell(("identity", "zero"))
        with pytest.raises(ShapeError):
            cell.forward(Tensor(np.zeros((1, 3, 2, 2))), ["identity"] * 2)


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


def _edge_and_grads(edge_fn, cell, e, src, w, seed):
    """An edge's output and the gradients of a fixed random projection of it
    with respect to `src`, the weight rows and every op parameter."""
    tensors = [src, w] + [p for _, p in cell.parameters()]
    ad.zero_grad(tensors)
    out = edge_fn(cell, e, src, w)
    probe = np.random.default_rng(seed).normal(size=out.shape)
    (out * Tensor(probe)).sum().backward()
    return [out.data] + [np.zeros(t.shape) if t.grad is None else t.grad for t in tensors]


def _folded(cell, e, src, w):
    return cell._edge_output(e, src, w)


SUB_MENU = ("sep_conv_5x5", "identity", "dil_conv_3x3", "zero", "sep_conv_3x3")


class TestFoldedEdge:
    """A relaxed edge folds its convolution ops into one tape node; it must
    match the per-op mixture of `oracles.relaxed_edge_reference` within
    1e-12 of each array's largest entry, output and every gradient."""

    @pytest.mark.parametrize("ops", [OP_KINDS, SUB_MENU], ids=["menu", "no-pools"])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("c,h,w", [(2, 4, 4), (4, 2, 2), (3, 4, 1), (3, 5, 5)],
                             ids=["desk-block0", "desk-block1", "4x1", "5x5-per-op"])
    def test_matches_per_op_mixture(self, c, h, w, m, ops):
        rng = np.random.default_rng(c * 10 + m)
        cell = Cell(c, c, CellTopology(), ops, rng)
        for p in [p for _, p in cell.parameters()]:
            p.data = rng.normal(0.0, 0.5, p.shape)  # not the small init: every term counts
        src = Tensor(rng.normal(size=(4 * m, c, h, w)), requires_grad=True)
        rows = rng.dirichlet(np.ones(len(ops)), size=m)
        w = Tensor(rows if m > 1 else rows[0], requires_grad=True)
        for e in (0, 5):
            got = _edge_and_grads(_folded, cell, e, src, w, e)
            want = _edge_and_grads(relaxed_edge_reference, cell, e, src, w, e)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300)
            assert any(np.abs(g).max() > 0 for g in got[3:])  # edge e's op parameters

    def test_crop_keeps_the_taps_that_reach_the_map(self):
        kernel = np.arange(25.0).reshape(5, 5)
        window = np.zeros((5, 5))
        kept, place = _kept_taps(2, 2, 1)  # a 4x4 map: every tap at dilation 1
        assert kernel[kept].shape == (5, 5) and window[place].shape == (5, 5)
        kept, place = _kept_taps(2, 2, 2)  # 3x3 taps, every other place
        window[place] = kernel[kept]
        assert window[::2, ::2].tolist() == kernel[1:4, 1:4].tolist()
        assert not window[1::2].any() and not window[:, 1::2].any()
        kept, place = _kept_taps(1, 1, 1)  # a 2x2 map
        assert kernel[kept].tolist() == kernel[1:4, 1:4].tolist()
        kept, place = _kept_taps(1, 1, 2)  # only the centre tap
        assert kernel[kept].tolist() == [[12.0]] and np.zeros((3, 3))[place].shape == (1, 1)

    @pytest.mark.parametrize("h,w,folds", [(4, 4, True), (2, 3, True), (5, 4, False),
                                           (1, 8, False)])
    def test_folds_on_maps_of_at_most_4x4(self, h, w, folds, monkeypatch):
        calls = []
        fold = ss._folded_convolutions
        monkeypatch.setattr(ss, "_folded_convolutions",
                            lambda *a: calls.append(a[0].shape) or fold(*a))
        cell = Cell(2, 2, SINGLE, OP_KINDS, np.random.default_rng(0))
        cell._edge_output(0, Tensor(np.ones((1, 2, h, w))), np.full(len(OP_KINDS), 1 / 9))
        assert calls == ([(1, 2, h, w)] if folds else [])

    def test_no_grad_relaxed_inverse_round_trip(self, monkeypatch):
        from nads.cli import PROFILES, flow_config_from
        from nads.flow_core import FlowModel

        flow = flow_config_from(PROFILES["desk"])
        model = FlowModel(flow, seed=3)
        rng = np.random.default_rng(4)
        for name, p in model.parameters():
            if "proj" in name or "conv" in name:  # a fresh projection hides every cell
                p.data = rng.normal(0.0, 0.2, p.shape)
        arch = sample_relaxed(ArchDistribution.uniform(flow.ops, flow.topology,
                                                       flow.num_cell_groups()), 5)
        x = rng.normal(size=(3,) + flow.in_shape)
        model.initialize_actnorm(x, arch)
        with ad.no_grad():
            zs, _ = model.forward(x, arch)
            zs = [z.data for z in zs]
            back = model.inverse(zs, arch)
            monkeypatch.setattr(Cell, "_edge_output", lambda self, e, src, edge: (
                relaxed_edge_reference(self, e, src, edge)))
            ref_zs, _ = model.forward(x, arch)
            ref_back = model.inverse(zs, arch)
        for z, ref in zip(zs, ref_zs):
            assert np.abs(z - ref.data).max() <= 1e-12 * np.abs(ref.data).max()
        assert np.abs(back - ref_back).max() <= 1e-12 * np.abs(ref_back).max()
        assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()
