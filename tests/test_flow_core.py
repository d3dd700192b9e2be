"""Flow-layer and model contracts: identity configurations, closed-form and
brute-force log-determinants, exact inverses, density normalization, analytic
gradients against finite differences, and the checkpoint format."""

import dataclasses
import json
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nads import autodiff as ad
from nads.autodiff import Tensor
from nads.cli import PROFILES, flow_config_from
from nads.errors import (
    ConfigError,
    NadsError,
    NotInitializedError,
    NumericError,
    ShapeError,
    UsageError,
)
from nads.flow_core import (
    CHECKPOINT_MAGIC,
    ActNorm,
    AffineCoupling,
    FlowConfig,
    FlowModel,
    Invertible1x1,
    backward,
    load_checkpoint,
    num_parameters,
    save_checkpoint,
    _plu,
    _squeeze,
)
from nads.search_space import (
    OP_KINDS,
    ArchDistribution,
    CellTopology,
    sample_discrete,
    sample_relaxed,
)

from oracles import numerical_logdet, scipy_plu

RNG = np.random.default_rng(7)
CHAIN = CellTopology(num_nodes=3, edges=((0, 1), (1, 2)))


def make_model(in_shape=(2, 4, 4), blocks=1, flows=2, squeeze=True, ops=("identity", "zero"),
               topology=CHAIN, seed=11, perturb=0.0, tie=True):
    cfg = FlowConfig(
        in_shape=in_shape,
        num_blocks=blocks,
        flows_per_block=flows,
        squeeze=squeeze,
        topology=topology,
        ops=ops,
        tie_cells_per_block=tie,
    )
    model = FlowModel(cfg, seed=seed)
    if perturb:
        rng = np.random.default_rng(seed + 1)
        for _, p in model.parameters():
            p.data = p.data + rng.normal(0, perturb, size=p.data.shape)
    return model


def uniform_dist(model):
    cfg = model.config
    return ArchDistribution.uniform(
        ops=cfg.ops, topology=cfg.topology, num_cell_groups=cfg.num_cell_groups()
    )


def mark_initialized(model):
    for steps in model.blocks:
        for step in steps:
            step.actnorm.initialized = True


def make_identity_model(**kw):
    """All layers configured to the identity: unit actnorm, identity channel
    mix, and coupling scale pinned at exactly 1 (the +40 bias saturates the
    sigmoid to 1.0 in float64)."""
    model = make_model(**kw)
    mark_initialized(model)
    for steps in model.blocks:
        for step in steps:
            inv = step.inv1x1
            c = inv.channels
            inv.perm = np.arange(c)
            inv.sign_diag = np.ones(c)
            inv.lower.data = np.zeros((c, c))
            inv.upper.data = np.zeros((c, c))
            inv.log_diag.data = np.zeros(c)
            if step.coupling is not None:
                cell = step.coupling.cell
                cell.proj_weight.data[:] = 0.0
                cell.proj_bias.data[: step.coupling.c_tr] = 40.0
                cell.proj_bias.data[step.coupling.c_tr :] = 0.0
    return model


class TestActNorm:
    def test_doubling_scale_closed_form_and_jacobian_oracle(self):
        # scale (2, 2), bias 0 on a 2-channel 2x2 input: output doubles and
        # logdet is H*W*sum(log scale) = 4 * 2 * log 2.
        layer = ActNorm(2)
        layer.log_scale.data = np.log([2.0, 2.0])
        layer.initialized = True
        x = RNG.normal(size=(1, 2, 2, 2))
        y, logdet = layer.forward(Tensor(x))
        np.testing.assert_allclose(y.data, 2.0 * x)
        expected = 4 * 2 * np.log(2.0)
        assert logdet.item() == pytest.approx(expected)
        assert expected == pytest.approx(5.5452, abs=1e-4)

        def f(flat):
            with ad.no_grad():
                return layer.forward(Tensor(flat.reshape(1, 2, 2, 2)))[0].data.ravel()

        assert numerical_logdet(f, x.ravel()) == pytest.approx(expected, rel=1e-6)

    def test_forward_before_init_forbidden(self):
        layer = ActNorm(2)
        with pytest.raises(NotInitializedError):
            layer.forward(Tensor(np.zeros((1, 2, 2, 2))))

    def test_initialize_moment_matching(self):
        # channel mean 3, std 2 -> scale 1/2 and bias -1.5, leaving the batch
        # standardized.
        rng = np.random.default_rng(3)
        batch = rng.normal(3.0, 2.0, size=(512, 2, 4, 4))
        layer = ActNorm(2)
        layer.initialize(batch)
        out = layer.forward(Tensor(batch))[0].data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-4)
        np.testing.assert_allclose(layer.scale, 0.5, atol=0.05)
        np.testing.assert_allclose(layer.bias.data, -1.5, atol=0.2)

    def test_initialize_already_standardized(self):
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(4096, 3, 2, 2))
        batch = (batch - batch.mean(axis=(0, 2, 3), keepdims=True)) / batch.std(
            axis=(0, 2, 3), keepdims=True
        )
        layer = ActNorm(3)
        layer.initialize(batch)
        np.testing.assert_allclose(layer.scale, 1.0, atol=1e-10)
        np.testing.assert_allclose(layer.bias.data, 0.0, atol=1e-10)

    def test_initialize_constant_channel_fallback(self, caplog):
        batch = np.concatenate(
            [np.full((8, 1, 2, 2), 7.0), RNG.normal(size=(8, 1, 2, 2))], axis=1
        )
        layer = ActNorm(2)
        with caplog.at_level(logging.WARNING):
            layer.initialize(batch)
        assert layer.scale[0] == pytest.approx(1.0)
        assert any("constant channel" in r.message for r in caplog.records)

    def test_initialize_needs_two_samples(self):
        with pytest.raises(ConfigError):
            ActNorm(1).initialize(np.zeros((1, 1, 2, 2)))


LU_SIZES = (1, 2, 3, 4, 8, 16)


def rotation(c, seed):
    """The kind of matrix Invertible1x1 factors: a random rotation."""
    return np.linalg.qr(np.random.default_rng(seed).normal(size=(c, c)))[0]


class TestPLU:
    @pytest.mark.parametrize("c", LU_SIZES)
    def test_reconstructs_with_unit_lower_factor(self, c):
        for seed in range(20):
            a = rotation(c, seed)
            perm, lo, up = _plu(a)
            assert sorted(perm) == list(range(c))
            np.testing.assert_array_equal(np.diag(lo), 1.0)
            np.testing.assert_array_equal(lo, np.tril(lo))
            np.testing.assert_array_equal(up, np.triu(up))
            pmat = np.zeros((c, c))
            pmat[np.arange(c), perm] = 1.0
            np.testing.assert_allclose(pmat @ lo @ up, a, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("c", LU_SIZES)
    def test_matches_lapack(self, c):
        pytest.importorskip("scipy")
        for seed in range(20):
            a = rotation(c, seed)
            perm, lo, up = _plu(a)
            ref_perm, ref_lo, ref_up = scipy_plu(a)
            np.testing.assert_array_equal(perm, ref_perm)
            np.testing.assert_allclose(lo, ref_lo, rtol=0, atol=1e-14)
            np.testing.assert_allclose(up, ref_up, rtol=0, atol=1e-14)


class TestInvertible1x1:
    @pytest.mark.parametrize("c", LU_SIZES)
    def test_inverse_roundtrips(self, c):
        layer = Invertible1x1(c, np.random.default_rng(c))
        rng = np.random.default_rng(100 + c)
        layer.lower.data += np.tril(rng.normal(0, 0.3, (c, c)), -1)
        layer.upper.data += np.triu(rng.normal(0, 0.3, (c, c)), 1)
        x = rng.normal(size=(3, c, 2, 3))
        with ad.no_grad():
            y = layer.forward(Tensor(x))[0].data
        np.testing.assert_allclose(layer.inverse(y), x, rtol=0, atol=1e-12)

    def test_logdet_matches_dense_jacobian(self):
        # random invertible 3x3 channel mix on a 3x2x2 input: analytic logdet
        # is H*W*log|det W| and must match the finite-difference Jacobian of
        # the full 12-dimensional map.
        layer = Invertible1x1(3, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        layer.lower.data += np.tril(rng.normal(0, 0.3, (3, 3)), -1)
        layer.upper.data += np.triu(rng.normal(0, 0.3, (3, 3)), 1)
        layer.log_diag.data += rng.normal(0, 0.3, 3)
        x = rng.normal(size=(1, 3, 2, 2))
        with ad.no_grad():
            _, logdet = layer.forward(Tensor(x))
            w = layer.weight().data
        assert logdet.item() == pytest.approx(4 * np.linalg.slogdet(w)[1], rel=1e-10)

        def f(flat):
            with ad.no_grad():
                return layer.forward(Tensor(flat.reshape(1, 3, 2, 2)))[0].data.ravel()

        assert numerical_logdet(f, x.ravel()) == pytest.approx(logdet.item(), rel=1e-6)

    def test_inverse_solves_exactly(self):
        layer = Invertible1x1(5, np.random.default_rng(8))
        x = RNG.normal(size=(3, 5, 2, 2))
        with ad.no_grad():
            y = layer.forward(Tensor(x))[0].data
        np.testing.assert_allclose(layer.inverse(y), x, atol=1e-12)

    def test_logdet_gradient_is_spatial_area(self):
        # d(logdet)/d(log_diag entry) is exactly H*W per sample.
        layer = Invertible1x1(3, np.random.default_rng(9))
        x = RNG.normal(size=(2, 3, 4, 2))
        _, logdet = layer.forward(Tensor(x))
        logdet.backward()  # one sample's logdet; the scalar broadcasts over N is shared
        np.testing.assert_allclose(layer.log_diag.grad, 4 * 2, atol=1e-12)


class TestAffineCoupling:
    def test_roundtrip_and_logdet_oracle(self):
        rng = np.random.default_rng(10)
        coup = AffineCoupling(4, CHAIN, ("identity", "zero"), rng)
        coup.cell.proj_weight.data = rng.normal(0, 0.5, coup.cell.proj_weight.shape)
        coup.cell.proj_bias.data = rng.normal(0, 0.5, coup.cell.proj_bias.shape)
        dist = ArchDistribution.uniform(("identity", "zero"), CHAIN, 1)
        arch = sample_discrete(dist, 3)
        rows = [("identity", "zero")[k] for k in arch.argmax_ops()]
        x = rng.normal(size=(1, 4, 2, 2))
        with ad.no_grad():
            y, logdet = coup.forward(Tensor(x), rows)
        np.testing.assert_allclose(coup.inverse(y.data, rows), x, atol=1e-12)

        def f(flat):
            with ad.no_grad():
                return coup.forward(Tensor(flat.reshape(1, 4, 2, 2)), rows)[0].data.ravel()

        assert numerical_logdet(f, x.ravel()) == pytest.approx(logdet.item(), rel=1e-5)

    def test_scale_bounded_in_unit_interval(self):
        rng = np.random.default_rng(11)
        coup = AffineCoupling(4, CHAIN, ("identity",), rng)
        coup.cell.proj_weight.data = rng.normal(0, 5.0, coup.cell.proj_weight.shape)
        x = rng.normal(size=(2, 4, 2, 2))
        rows = ["identity"] * 2
        with ad.no_grad():
            scale, _, _ = coup._scale_and_shift(Tensor(x[:, :2]), rows)
        assert scale.data.min() > 0.0 and scale.data.max() < 1.0

    def test_singular_scale_raises(self):
        rng = np.random.default_rng(12)
        coup = AffineCoupling(2, CHAIN, ("identity", "zero"), rng)
        coup.cell.proj_bias.data[0] = -800.0  # sigmoid underflows to exactly 0
        rows = ["identity"] * 2
        with pytest.raises(NumericError):
            coup.inverse(np.zeros((1, 2, 2, 2)), rows)


class TestForwardIdentity:
    def test_identity_model_is_squeeze_reordering(self):
        model = make_identity_model(in_shape=(2, 4, 4), blocks=1, flows=2)
        x = RNG.normal(size=(3, 2, 4, 4))
        zs, logdet = model.forward(x, sample_discrete(uniform_dist(model), 1))
        assert len(zs) == 1
        np.testing.assert_allclose(zs[0].data, _squeeze(x), atol=1e-12)
        np.testing.assert_allclose(logdet.data, 0.0, atol=1e-12)

    def test_identity_inverse_recovers_and_zero_maps_to_zero(self):
        model = make_identity_model(in_shape=(2, 4, 4), blocks=2, flows=1)
        arch = sample_discrete(uniform_dist(model), 2)
        x = RNG.normal(size=(2, 2, 4, 4))
        zs, _ = model.forward(x, arch)
        np.testing.assert_allclose(model.inverse([z.data for z in zs], arch), x, atol=1e-10)
        zeros = [np.zeros((1,) + s) for s in model.config.latent_shapes()]
        np.testing.assert_allclose(model.inverse(zeros, arch), 0.0, atol=1e-12)


class TestLogProb:
    def test_identity_model_at_origin(self):
        model = make_identity_model(in_shape=(2, 4, 4), blocks=1, flows=1)
        arch = sample_discrete(uniform_dist(model), 1)
        d = 2 * 4 * 4
        lp = model.log_prob(np.zeros((2, 2, 4, 4)), arch)
        np.testing.assert_allclose(lp.data, -(d / 2) * np.log(2 * np.pi), atol=1e-10)

    def test_actnorm_only_change_of_variables(self):
        # scale 2, bias b: log p(x) = sum_dims log N(2x + b; 0, 1) + D log 2.
        model = make_model(in_shape=(1, 1, 1), blocks=1, flows=1, squeeze=False)
        mark_initialized(model)
        step = model.blocks[0][0]
        assert step.coupling is None  # single channel: no coupling layer
        step.inv1x1.perm = np.arange(1)
        step.inv1x1.sign_diag = np.ones(1)
        step.inv1x1.lower.data = np.zeros((1, 1))
        step.inv1x1.upper.data = np.zeros((1, 1))
        step.inv1x1.log_diag.data = np.zeros(1)
        b = 0.3
        step.actnorm.log_scale.data = np.array([np.log(2.0)])
        step.actnorm.bias.data = np.array([b])
        x = RNG.normal(size=(5, 1, 1, 1))
        lp = model.log_prob(x).data
        z = 2.0 * x.ravel() + b
        want = -0.5 * z**2 - 0.5 * np.log(2 * np.pi) + np.log(2.0)
        np.testing.assert_allclose(lp, want, atol=1e-12)

    def test_one_dim_flow_density_integrates_to_one(self):
        # 1-D flow (C=H=W=1): quadrature of exp(log_prob) over [-10, 10].
        model = make_model(in_shape=(1, 1, 1), blocks=1, flows=2, squeeze=False, perturb=0.1)
        rng = np.random.default_rng(20)
        model.initialize_actnorm(rng.normal(size=(256, 1, 1, 1)))
        grid = np.arange(-10.0, 10.0 + 1e-3, 1e-3)
        with ad.no_grad():
            lp = model.log_prob(grid.reshape(-1, 1, 1, 1)).data
        mass = np.trapezoid(np.exp(lp), grid)
        assert mass == pytest.approx(1.0, abs=1e-2)

    def test_deterministic_given_inputs(self):
        model = make_model(perturb=0.05)
        arch = sample_relaxed(uniform_dist(model), 5)
        x = RNG.normal(size=(2, 2, 4, 4))
        model.initialize_actnorm(x, arch)
        a = model.log_prob(x, arch).data
        b = model.log_prob(x, arch).data
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_actnorm_bias_gradient_matches_fd(self):
        model = make_identity_model(in_shape=(2, 2, 2), blocks=1, flows=1)
        arch = sample_discrete(uniform_dist(model), 3)
        x = RNG.normal(size=(4, 2, 2, 2))
        loss = model.log_prob(x, arch).mean()
        grads = backward(model, loss)
        name = "block0/step0/actnorm/bias"
        h = 1e-6
        layer = model.blocks[0][0].actnorm
        fd = np.zeros(layer.bias.data.shape)
        for i in range(fd.size):
            layer.bias.data[i] += h
            up = model.log_prob(x, arch).mean().item()
            layer.bias.data[i] -= 2 * h
            dn = model.log_prob(x, arch).mean().item()
            layer.bias.data[i] += h
            fd[i] = (up - dn) / (2 * h)
        np.testing.assert_allclose(grads[name], fd, rtol=1e-6, atol=1e-8)

    def test_zero_upstream_gives_zero_gradients(self):
        model = make_model(perturb=0.05)
        mark_initialized(model)
        arch = sample_discrete(uniform_dist(model), 4)
        x = RNG.normal(size=(3, 2, 4, 4))
        loss = model.log_prob(x, arch)
        grads = backward(model, loss, upstream=np.zeros(3))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_backward_without_forward_is_usage_error(self):
        model = make_model()
        mark_initialized(model)
        with ad.no_grad():
            loss = model.log_prob(RNG.normal(size=(2, 2, 4, 4))).sum()
        with pytest.raises(UsageError):
            backward(model, loss)

    def test_full_gradient_fidelity(self):
        # every parameter gradient matches central differences at 1e-3
        # relative error (entries where both are ~0 are skipped).
        model = make_model(
            in_shape=(1, 2, 2), blocks=1, flows=1,
            ops=("avg_pool_3x3", "max_pool_3x3", "skip_connect", "sep_conv_3x3",
                 "dil_conv_3x3", "identity", "zero"),
            perturb=0.1, seed=21,
        )
        rng = np.random.default_rng(22)
        x = rng.normal(size=(3, 1, 2, 2))
        model.initialize_actnorm(x)
        arch = sample_relaxed(uniform_dist(model), 6)

        def loss_value():
            with ad.no_grad():
                return (-model.log_prob(x, arch)).mean().item()

        loss = (-model.log_prob(x, arch)).mean()
        grads = backward(model, loss)
        h = 1e-4
        checked = 0
        for name, p in model.parameters():
            flat = p.data.ravel()
            gflat = grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                dn = loss_value()
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                if abs(fd) < 1e-8 and abs(gflat[i]) < 1e-8:
                    continue
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]))
                assert rel < 1e-3, f"{name}[{i}]: fd={fd} analytic={gflat[i]}"
                checked += 1
        assert checked > 50


class TestInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_bijectivity_random_models(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(1, 4, 4), (2, 4, 4), (3, 8, 8), (4, 4, 4)]
        in_shape = shapes[seed % len(shapes)]
        model = make_model(
            in_shape=in_shape, blocks=rng.integers(1, 3), flows=rng.integers(1, 3),
            ops=("identity", "sep_conv_3x3", "avg_pool_3x3", "zero"),
            seed=seed, perturb=0.1,
        )
        dist = uniform_dist(model)
        arch = sample_discrete(dist, seed)
        x = rng.normal(size=(2,) + in_shape)
        model.initialize_actnorm(x, arch)
        zs, _ = model.forward(x, arch)
        recon = model.inverse([z.data for z in zs], arch)
        assert np.abs(recon - x).max() < 1e-5

    def test_bijectivity_untied_cells(self):
        model = make_model(in_shape=(2, 8, 8), blocks=2, flows=2, tie=False, perturb=0.1,
                           ops=("identity", "sep_conv_3x3", "zero"), seed=12)
        arch = sample_discrete(uniform_dist(model), 12)
        x = RNG.normal(size=(2, 2, 8, 8))
        model.initialize_actnorm(x, arch)
        zs, _ = model.forward(x, arch)
        recon = model.inverse([z.data for z in zs], arch)
        assert np.abs(recon - x).max() < 1e-5

    @pytest.mark.parametrize("tie,groups", [
        (True, [0, 0, 1, 1]), (False, [0, 1, 2, 3]),
    ])
    def test_walk_assigns_cell_groups(self, tie, groups):
        model = make_model(in_shape=(2, 4, 4), blocks=2, flows=2, tie=tie)
        ne = CHAIN.num_edges
        rows = model.config.num_cell_groups() * ne
        walk = list(model._walk(np.arange(rows)[:, None]))
        assert [kind for kind, *_ in walk] == ["squeeze", "step", "step", "split",
                                                "squeeze", "step", "step"]
        got = [int(r[0][0]) // ne for kind, _, _, _, r in walk if kind == "step"]
        assert got == groups

    def test_walk_skips_blocks_without_coupling(self):
        # the second block holds a single channel, so it has no coupling
        model = make_model(in_shape=(2, 1, 1), blocks=2, flows=2, squeeze=False, tie=False)
        walk = list(model._walk(np.arange(2 * CHAIN.num_edges)[:, None]))
        got = [None if r is None else int(r[0][0]) // CHAIN.num_edges
               for kind, _, _, _, r in walk if kind == "step"]
        assert got == [0, 1, None, None]

    def test_composed_model_logdet_matches_jacobian(self):
        # total dimension 16; analytic logdet vs the dense FD Jacobian.
        model = make_model(in_shape=(1, 4, 4), blocks=2, flows=1, perturb=0.1, seed=30)
        arch = sample_discrete(uniform_dist(model), 31)
        x = RNG.normal(size=(2, 1, 4, 4))
        model.initialize_actnorm(x, arch)
        x0 = RNG.normal(size=(1, 1, 4, 4))

        def f(flat):
            with ad.no_grad():
                zs, _ = model.forward(flat.reshape(1, 1, 4, 4), arch)
            return np.concatenate([z.data.ravel() for z in zs])

        with ad.no_grad():
            _, logdet = model.forward(x0, arch)
        assert numerical_logdet(f, x0.ravel()) == pytest.approx(logdet.data[0], rel=1e-4)

    @pytest.mark.parametrize("in_shape,blocks,flows,squeeze", [
        ((1, 8, 8), 2, 2, True),
        ((3, 8, 8), 3, 1, True),
        ((2, 1, 1), 1, 3, False),
        ((6, 2, 2), 2, 1, False),
    ])
    def test_latent_completeness(self, in_shape, blocks, flows, squeeze):
        cfg = FlowConfig(in_shape=in_shape, num_blocks=blocks, flows_per_block=flows,
                         squeeze=squeeze, topology=CHAIN, ops=("identity", "zero"))
        total = sum(int(np.prod(s)) for s in cfg.latent_shapes())
        assert total == int(np.prod(in_shape))
        model = FlowModel(cfg, seed=1)
        arch = sample_discrete(ArchDistribution.uniform(
            ("identity", "zero"), CHAIN, cfg.num_cell_groups()), 1)
        x = RNG.normal(size=(2,) + in_shape)
        model.initialize_actnorm(x, arch)
        zs, _ = model.forward(x, arch)
        assert sum(int(np.prod(z.shape[1:])) for z in zs) == int(np.prod(in_shape))

    def test_two_dim_density_integrates_to_one(self):
        model = make_model(in_shape=(2, 1, 1), blocks=1, flows=2, squeeze=False,
                           perturb=0.1, seed=33)
        rng = np.random.default_rng(34)
        data = rng.normal(size=(512, 2, 1, 1))
        arch = sample_discrete(uniform_dist(model), 35)
        model.initialize_actnorm(data, arch)
        grid = np.arange(-8.0, 8.0, 0.02)
        xx, yy = np.meshgrid(grid, grid)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1).reshape(-1, 2, 1, 1)
        with ad.no_grad():
            lp = model.log_prob(pts, arch).data
        mass = np.exp(lp).sum() * 0.02 * 0.02
        assert mass == pytest.approx(1.0, abs=1e-2)


class TestErrors:
    def test_shape_mismatch(self):
        model = make_model()
        mark_initialized(model)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 3, 4, 4)))

    def test_uninitialized_actnorm_message(self):
        model = make_model()
        with pytest.raises(NotInitializedError, match="not initialized"):
            model.forward(np.zeros((1, 2, 4, 4)))

    def test_nonfinite_intermediate_names_layer(self):
        model = make_model(perturb=0.05)
        mark_initialized(model)
        model.blocks[0][1].actnorm.bias.data[0] = np.inf
        with pytest.raises(NumericError, match="block 0 step 1"):
            model.forward(RNG.normal(size=(1, 2, 4, 4)))

    def test_inverse_latent_shape_mismatch(self):
        model = make_model()
        mark_initialized(model)
        with pytest.raises(ShapeError):
            model.inverse([np.zeros((1, 3, 3, 3))])

    def test_squeeze_needs_divisible_dims(self):
        with pytest.raises(ConfigError):
            FlowConfig(in_shape=(1, 6, 6), num_blocks=2, flows_per_block=1)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)
FLOW_KEYS = list(FlowConfig(in_shape=(1, 8, 8)).to_dict())


@st.composite
def flow_configs(draw):
    blocks = draw(st.integers(1, 3))
    squeeze = draw(st.booleans())
    unit = 2**blocks if squeeze else 1
    num_nodes = draw(st.integers(2, 5))
    edges = sorted({(i, j) for j in range(1, num_nodes)
                    for i in draw(st.sets(st.integers(0, j - 1), min_size=1))})
    return FlowConfig(
        in_shape=(draw(st.integers(1, 4)), unit * draw(st.integers(1, 4)),
                  unit * draw(st.integers(1, 4))),
        num_blocks=blocks,
        flows_per_block=draw(st.integers(1, 4)),
        squeeze=squeeze,
        topology=CellTopology(num_nodes, tuple(edges)),
        ops=tuple(draw(st.lists(st.sampled_from(OP_KINDS), min_size=1, unique=True))),
        tie_cells_per_block=draw(st.booleans()),
    )


# Arbitrary objects, and valid configs with arbitrary values written over some keys.
FLOW_DOCS = st.dictionaries(st.sampled_from(FLOW_KEYS) | st.text(max_size=8), JSON_VALUES,
                            max_size=9)
FLOW_DOCS = FLOW_DOCS | st.tuples(flow_configs(), FLOW_DOCS).map(
    lambda pair: {**pair[0].to_dict(), **pair[1]})


class TestConfigCodec:
    @settings(deadline=None, derandomize=True)
    @given(flow_configs())
    def test_json_roundtrip(self, cfg):
        assert FlowConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(FLOW_DOCS)
    def test_any_json_object_parses_or_raises_config_error(self, doc):
        try:
            cfg = FlowConfig.from_dict(doc)
        except ConfigError:
            return
        assert isinstance(cfg, FlowConfig)

    def test_absent_keys_take_dataclass_defaults(self):
        assert FlowConfig.from_dict({"in_shape": [1, 8, 8]}) == FlowConfig(in_shape=(1, 8, 8))

    @pytest.mark.parametrize("doc,match", [
        ({}, "in_shape"),
        ({"in_shape": [1, 8]}, "list of 3"),
        ({"in_shape": [1, 8, 8], "num_blocks": True}, "num_blocks"),
        ({"in_shape": [1, 8, 8], "squeeze": 1}, "squeeze"),
        ({"in_shape": [1, 8, 8], "edges": [[0, 1, 2]]}, "edges"),
        ({"in_shape": [1, 8, 8], "num_block": 2}, "unknown"),
        ({"in_shape": [1, 8, 8], "ops": []}, "at least one"),
        ({"in_shape": [1, 8, 8], "num_blocks": 10**18}, "divisible"),
        ({"in_shape": [1, 8, 8], "num_nodes": 10**18}, "no incoming edge"),
        ([1, 8, 8], "object"),
        ({"in_shape": [1, 8, 8], "ops": ["identity", "zero", "identity"]}, "duplicate"),
    ])
    def test_malformed_configs(self, doc, match):
        with pytest.raises(ConfigError, match=match):
            FlowConfig.from_dict(doc)


MEMBER_FLOW = FlowConfig(in_shape=(3, 8, 8), num_blocks=2, flows_per_block=2, topology=CHAIN,
                         ops=("identity", "sep_conv_3x3", "dil_conv_3x3", "zero"))


class TestMemberModel:
    """A model built for one discrete architecture holds only its ops."""

    def archs(self):
        dist = ArchDistribution.uniform(MEMBER_FLOW.ops, CHAIN, MEMBER_FLOW.num_cell_groups())
        return [sample_discrete(dist, seed) for seed in range(4)], sample_relaxed(dist, 0)

    def test_holds_the_supernets_initial_values_of_its_ops(self):
        x = RNG.normal(size=(4, 3, 8, 8))
        for arch in self.archs()[0]:
            supernet = FlowModel(MEMBER_FLOW, seed=5)
            member = FlowModel(MEMBER_FLOW, seed=5, arch=arch)
            held = dict(supernet.parameters())
            for name, p in member.parameters():
                np.testing.assert_array_equal(p.data, held[name].data)
            for model in (supernet, member):
                model.initialize_actnorm(x, arch)
            np.testing.assert_array_equal(member.log_prob(x, arch).data,
                                          supernet.log_prob(x, arch).data)

    def test_runs_only_its_own_architecture(self):
        (arch, other, *_), relaxed = self.archs()
        assert not np.array_equal(arch.argmax_ops(), other.argmax_ops())
        member = FlowModel(MEMBER_FLOW, seed=5, arch=arch)
        x = RNG.normal(size=(2, 3, 8, 8))
        member.initialize_actnorm(x, arch)
        zs = [z.data for z in member.forward(x)[0]]
        for args in [(other,), (relaxed,), (None, relaxed.weights), (arch, relaxed.weights)]:
            for run in (member.log_prob, member.forward):
                with pytest.raises(ConfigError, match="architecture"):
                    run(x, *args)
        for wrong in (other, relaxed):
            with pytest.raises(ConfigError, match="architecture"):
                member.inverse(zs, wrong)
            with pytest.raises(ConfigError, match="architecture"):
                member.initialize_actnorm(x, wrong)
        with pytest.raises(ConfigError, match="discrete"):
            FlowModel(MEMBER_FLOW, arch=relaxed)

    def test_runs_its_own_architecture_when_given_none(self):
        arch = self.archs()[0][0]
        x = RNG.normal(size=(4, 3, 8, 8))
        own, given = (FlowModel(MEMBER_FLOW, seed=5, arch=arch) for _ in range(2))
        own.initialize_actnorm(x)
        given.initialize_actnorm(x, arch)
        for (name, p), (_, q) in zip(own.parameters(), given.parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)
        np.testing.assert_array_equal(own.log_prob(x).data, given.log_prob(x, arch).data)
        (zs, logdet), (zs_given, logdet_given) = own.forward(x), given.forward(x, arch)
        np.testing.assert_array_equal(logdet.data, logdet_given.data)
        for z, z_given in zip(zs, zs_given):
            np.testing.assert_array_equal(z.data, z_given.data)
        latents = [z.data for z in zs]
        np.testing.assert_array_equal(own.inverse(latents), given.inverse(latents, arch))


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        model = make_model(in_shape=(3, 8, 8), blocks=2, flows=2, perturb=0.08,
                           ops=("identity", "sep_conv_3x3", "zero"), seed=40)
        arch = sample_discrete(uniform_dist(model), 41)
        x = RNG.normal(size=(4, 3, 8, 8))
        model.initialize_actnorm(x, arch)
        path = tmp_path / "model.nadsflw"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        lp0 = model.log_prob(x, arch).data
        lp1 = clone.log_prob(x, arch).data
        np.testing.assert_array_equal(lp0, lp1)
        for (n0, p0), (n1, p1) in zip(model.parameters(), clone.parameters()):
            assert n0 == n1
            np.testing.assert_array_equal(p0.data, p1.data)

    def test_load_lays_out_the_model_without_drawing(self, tmp_path, monkeypatch):
        """A member's checkpoint is its header plus its own parameters, and
        a load rebuilds supernets and members from the header alone."""
        import nads.flow_core

        x = RNG.normal(size=(4, 3, 8, 8))
        archs = TestMemberModel().archs()[0][:2]
        models = [FlowModel(MEMBER_FLOW, seed=6, arch=arch) for arch in archs]
        models.append(FlowModel(MEMBER_FLOW, seed=6))
        paths = []
        for j, model in enumerate(models):
            model.initialize_actnorm(x, model.arch or archs[0])
            paths.append(tmp_path / f"m{j}.nadsflw")
            save_checkpoint(model, paths[-1])

        def no_draw(*args, **kwargs):
            raise AssertionError("the load drew a random initialization")

        monkeypatch.setattr(nads.flow_core, "rng_for", no_draw)
        monkeypatch.setattr(nads.flow_core, "_plu", no_draw)
        for model, path in zip(models, paths):
            blob, n = path.read_bytes(), len(CHECKPOINT_MAGIC)
            end = n + 4 + int.from_bytes(blob[n : n + 4], "little")
            assert len(blob) - end == 8 * num_parameters(model.config, model.arch)
            clone = load_checkpoint(path)
            assert (clone.arch is None) == (model.arch is None)
            arch = model.arch or archs[0]
            if model.arch is not None:
                np.testing.assert_array_equal(clone.arch.weights, arch.weights)
            np.testing.assert_array_equal(clone.log_prob(x, arch).data,
                                          model.log_prob(x, arch).data)
            assert [n for n, _ in clone.parameters()] == [n for n, _ in model.parameters()]

    def test_magic_is_checked(self, tmp_path):
        path = tmp_path / "bad.nadsflw"
        path.write_bytes(b"NOTAFLOW" + b"\x00" * 64)
        with pytest.raises(UsageError, match="magic"):
            load_checkpoint(path)

    def test_older_format_refused_naming_the_current_one(self, tmp_path, valid_checkpoint):
        path = tmp_path / "v1.nadsflw"
        path.write_bytes(b"NADSFLW1" + valid_checkpoint.read_bytes()[8:])
        with pytest.raises(UsageError, match="NADSFLW2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("flow", [
        *(dataclasses.replace(flow_config_from(PROFILES[name]), flows_per_block=2)
          for name in sorted(PROFILES)),  # two steps each keep the paper profile small
        FlowConfig(in_shape=(3, 8, 8), num_blocks=2, flows_per_block=2,
                   tie_cells_per_block=False),
        FlowConfig(in_shape=(5, 2, 2), num_blocks=2, flows_per_block=2, squeeze=False,
                   ops=("sep_conv_5x5", "dil_conv_3x3", "zero")),
    ], ids=[*sorted(PROFILES), "untied", "no-squeeze"])
    def test_parameter_count_matches_built_model(self, flow):
        model = FlowModel(flow)
        assert num_parameters(flow) == sum(p.data.size for _, p in model.parameters())
        dist = ArchDistribution.uniform(flow.ops, flow.topology, flow.num_cell_groups())
        for seed in range(3):  # members of sampled architectures
            arch = sample_discrete(dist, seed)
            member = FlowModel(flow, arch=arch)
            count = sum(p.data.size for _, p in member.parameters())
            assert num_parameters(flow, arch) == count <= num_parameters(flow)

    def test_forged_wide_header_refused_before_allocating(self, tmp_path):
        # A 64-channel step holds ~240k parameters (~1.9 MB); the file holds
        # none of them, so the load must fail without building the model.
        flow = FlowConfig(in_shape=(64, 1, 1), num_blocks=1, flows_per_block=1,
                          squeeze=False)
        header = json.dumps({"arch": None, "flow": flow.to_dict(),
                             "steps": [[True, list(range(64)), [1] * 64]]}).encode()
        path = tmp_path / "forged.nadsflw"
        path.write_bytes(CHECKPOINT_MAGIC + len(header).to_bytes(4, "little") + header)
        assert path.stat().st_size < 1024
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="parameter bytes"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_save_is_deterministic(self, tmp_path):
        model = make_model(perturb=0.02, seed=50)
        mark_initialized(model)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    model = make_model(perturb=0.02, seed=60)
    mark_initialized(model)
    path = tmp_path_factory.mktemp("checkpoint") / "valid.nadsflw"
    save_checkpoint(model, path)
    return path


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_header_or_truncation_loads_or_raises_nads_error(valid_checkpoint, data):
    """Any JSON value as the header of an otherwise valid checkpoint (the
    valid header with one value replaced included), and any truncation of a
    valid checkpoint, either loads or raises NadsError."""
    blob = valid_checkpoint.read_bytes()
    n = len(CHECKPOINT_MAGIC)
    end = n + 4 + int.from_bytes(blob[n : n + 4], "little")
    valid = json.loads(blob[n + 4 : end])

    def with_header(header):
        raw = json.dumps(header).encode()
        return blob[: n] + len(raw).to_bytes(4, "little") + raw + blob[end:]

    def flow_value(key_value):
        key, value = key_value
        return {**valid, "flow": {**valid["flow"], key: value}}

    def step_value(where):
        k, i, value = where
        steps = [list(step) for step in valid["steps"]]
        steps[k][i] = value
        return {**valid, "steps": steps}

    keys = st.sampled_from(["arch", "flow", "steps"]) | st.text(max_size=6)
    blobs = st.one_of(
        JSON_VALUES.map(with_header),
        st.dictionaries(keys, JSON_VALUES, max_size=3).map(with_header),
        st.tuples(st.sampled_from(sorted(valid["flow"])), JSON_VALUES).map(flow_value)
        .map(with_header),
        st.tuples(st.integers(0, len(valid["steps"]) - 1), st.integers(0, 2), JSON_VALUES)
        .map(step_value).map(with_header),
        (JSON_VALUES | st.lists(st.sampled_from(OP_KINDS), max_size=3))
        .map(lambda arch: {**valid, "arch": arch}).map(with_header),
        st.integers(0, len(blob) - 1).map(lambda k: blob[:k]),
    )
    path = valid_checkpoint.with_name("candidate.nadsflw")
    path.write_bytes(data.draw(blobs))
    try:
        model = load_checkpoint(path)
    except NadsError:
        return
    assert isinstance(model, FlowModel)
