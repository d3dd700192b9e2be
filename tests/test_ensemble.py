"""Posterior-weighted ensemble arithmetic, cross-checked bit-for-bit against
the WAIC module, plus building/serialization/generation."""

import json

import numpy as np
import pytest

from nads.data import SyntheticSpec, make_synthetic
from nads.ensemble import (
    Ensemble,
    EnsembleMember,
    build_ensemble,
    ensemble_waic,
    generate_samples,
    load_ensemble,
    member_logliks,
    normalized_weights,
    save_ensemble,
)
from nads.errors import ConfigError, DataError
from nads.flow_core import FlowConfig, FlowModel
from nads.search_space import ArchDistribution, ArchSample, CellTopology, sample_discrete
from nads.trainer import RetrainConfig
from nads.waic import LogLikMatrix, waic_per_sample

from oracles import per_sample_generate

CHAIN = CellTopology(3, ((0, 1), (1, 2)))
TOY_FLOW = FlowConfig(in_shape=(2, 1, 1), num_blocks=1, flows_per_block=2, squeeze=False,
                      topology=CHAIN, ops=("zero", "identity"))


def mixture_data(count=400, seed=5):
    spec = SyntheticSpec("gaussian_mixture", count=count, seed=seed,
                         params={"means": [[-2.0, 0.0], [2.0, 0.0]], "sigmas": [0.4, 1.2]})
    return make_synthetic(spec).x.reshape(-1, 2, 1, 1)


def stub_member(lls, weight, arch_op=1):
    """Member whose log_prob returns a fixed vector (formula tests only)."""
    w = np.zeros((2, 2))
    w[:, arch_op] = 1.0
    model = FlowModel(TOY_FLOW, seed=0)
    member = EnsembleMember(ArchSample("discrete", w), model,
                            raw_log_mass=np.log(max(weight, 1e-300)), weight=weight)
    member.log_prob = lambda x, lls=np.asarray(lls, dtype=np.float64): lls
    return member


def stub_ensemble(columns, weights):
    members = [stub_member(col, w) for col, w in zip(columns, weights)]
    return Ensemble(members)


def ensemble_mean_loglik(ens, x):
    return waic_per_sample(member_logliks(ens, x)).mean


def ensemble_var_loglik(ens, x):
    return waic_per_sample(member_logliks(ens, x)).variance


class TestWeights:
    def test_normalization_arithmetic(self):
        # raw masses (0.2, 0.2, 0.1) -> weights (0.4, 0.4, 0.2)
        w = normalized_weights(np.log([0.2, 0.2, 0.1]))
        np.testing.assert_allclose(w, [0.4, 0.4, 0.2], atol=1e-12)

    def test_single_member(self):
        np.testing.assert_allclose(normalized_weights(np.log([0.3])), [1.0])

    def test_scale_invariance(self):
        # multiplying all raw masses by a constant leaves weights unchanged
        lp = np.log([0.5, 0.25, 0.125])
        np.testing.assert_allclose(
            normalized_weights(lp), normalized_weights(lp + np.log(123.0)), atol=1e-15
        )

    def test_log_space_underflow_safe(self):
        w = normalized_weights(np.array([-2000.0, -2001.0]))
        assert np.isfinite(w).all()
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
        assert w[0] > w[1]

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            Ensemble([stub_member([0.0], 0.5), stub_member([0.0], 0.4)])


class TestMoments:
    def test_mean_trivial_cases(self):
        x = np.zeros((2, 2, 1, 1))
        ens = stub_ensemble([[-1.0, -5.0], [-1.0, -5.0]], [0.5, 0.5])
        np.testing.assert_allclose(ensemble_mean_loglik(ens, x), [-1.0, -5.0])
        ens2 = stub_ensemble([[-1.0], [-3.0]], [0.5, 0.5])
        np.testing.assert_allclose(ensemble_mean_loglik(ens2, np.zeros((1, 2, 1, 1))), [-2.0])

    def test_mean_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        cols = rng.normal(size=(3, 5))
        w = rng.dirichlet(np.ones(3))
        ens = stub_ensemble(cols, w)
        got = ensemble_mean_loglik(ens, np.zeros((5, 2, 1, 1)))
        want = sum(w[i] * cols[i] for i in range(3))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_variance_hand_case(self):
        # lls (-1, -3) with weights (0.5, 0.5): 0.5(1 + 9) - 4 = 1
        ens = stub_ensemble([[-1.0], [-3.0]], [0.5, 0.5])
        np.testing.assert_allclose(ensemble_var_loglik(ens, np.zeros((1, 2, 1, 1))), [1.0])

    def test_variance_trivial_cases(self):
        x = np.zeros((3, 2, 1, 1))
        same = stub_ensemble([[-2.0, 0.0, 1.0]] * 3, [0.2, 0.5, 0.3])
        np.testing.assert_allclose(ensemble_var_loglik(same, x), 0.0, atol=1e-15)
        degenerate = stub_ensemble([[-1.0, 2.0, 0.5], [5.0, -9.0, 3.3]], [1.0, 0.0])
        np.testing.assert_allclose(ensemble_var_loglik(degenerate, x), 0.0, atol=1e-15)

    def test_waic_hand_case_and_bound(self):
        x = np.zeros((1, 2, 1, 1))
        ens = stub_ensemble([[-1.0], [-3.0]], [0.5, 0.5])
        np.testing.assert_allclose(ensemble_waic(ens, x), [-3.0])
        rng = np.random.default_rng(1)
        cols = rng.normal(size=(4, 6))
        w = rng.dirichlet(np.ones(4))
        ens2 = stub_ensemble(cols, w)
        xx = np.zeros((6, 2, 1, 1))
        assert (ensemble_waic(ens2, xx) <= ensemble_mean_loglik(ens2, xx) + 1e-12).all()

    def test_bit_level_cross_consistency_with_waic_module(self):
        rng = np.random.default_rng(2)
        cols = rng.normal(size=(3, 8))
        w = rng.dirichlet(np.ones(3))
        ens = stub_ensemble(cols, w)
        x = np.zeros((8, 2, 1, 1))
        report = waic_per_sample(LogLikMatrix(np.stack(cols, axis=1), weights=w))
        np.testing.assert_array_equal(ensemble_waic(ens, x), report.score)
        np.testing.assert_array_equal(ensemble_mean_loglik(ens, x), report.mean)
        np.testing.assert_array_equal(ensemble_var_loglik(ens, x), np.maximum(report.variance, 0))


class TestBuild:
    def test_build_retrains_and_weights(self):
        data = mixture_data(300)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=10, learning_rate=1e-2,
                            batch_size=32, ensemble_size=3, seed=1)
        ens = build_ensemble(dist, data, cfg, seed=5)
        assert len(ens.members) == 3
        np.testing.assert_allclose(ens.weights.sum(), 1.0, atol=1e-12)
        # uniform phi: every sampled arch has the same mass -> uniform weights
        np.testing.assert_allclose(ens.weights, 1.0 / 3.0, atol=1e-12)
        scores = ensemble_waic(ens, data[:7])
        assert scores.shape == (7,)
        assert np.isfinite(scores).all()

    def test_degenerate_distribution_duplicates_kept(self):
        data = mixture_data(200)
        logits = np.array([[0.0, 50.0], [0.0, 50.0]])
        dist = ArchDistribution(logits, 1.0, ("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=5, learning_rate=1e-2,
                            batch_size=16, ensemble_size=3, seed=2)
        ens = build_ensemble(dist, data, cfg, seed=6)
        for mem in ens.members:
            assert (mem.arch.argmax_ops() == 1).all()
        np.testing.assert_allclose(ens.weights, 1.0 / 3.0, atol=1e-12)
        # independent retraining seeds give parameter diversity
        p0 = ens.members[0].model.parameters()[0][1].data
        p1 = ens.members[1].model.parameters()[0][1].data
        assert not np.array_equal(p0, p1)

    def test_m1_weight_is_one(self):
        data = mixture_data(100)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=2, learning_rate=1e-2,
                            batch_size=16, ensemble_size=1, seed=3)
        ens = build_ensemble(dist, data, cfg, seed=7)
        np.testing.assert_allclose(ens.weights, [1.0])

    def test_invalid_size(self):
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=1, ensemble_size=1)
        with pytest.raises(ConfigError):
            build_ensemble(dist, mixture_data(50), cfg, num_members=0)


class TestGenerate:
    def build_tiny(self):
        data = mixture_data(200)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=5, learning_rate=1e-2,
                            batch_size=32, ensemble_size=2, seed=4)
        return build_ensemble(dist, data, cfg, seed=8)

    def test_temperature_zero_is_single_mode(self):
        ens = self.build_tiny()
        batch = generate_samples(ens, count=4, temperature=0.0, seed=1)
        assert batch.shape == (4, 2, 1, 1)
        # latent 0 maps through each member; members may differ, but repeated
        # draws from the same member must coincide
        batch2 = generate_samples(ens.members[0], count=3, temperature=0.0, seed=2)
        for i in range(1, 3):
            np.testing.assert_array_equal(batch2[0], batch2[i])

    def test_same_seed_reproducible(self):
        ens = self.build_tiny()
        a = generate_samples(ens, count=6, temperature=0.7, seed=9)
        b = generate_samples(ens, count=6, temperature=0.7, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_output_shape_and_clip(self):
        ens = self.build_tiny()
        batch = generate_samples(ens, count=5, temperature=1.0, seed=3, clip_range=(-1.0, 1.0))
        assert batch.shape == (5, 2, 1, 1)
        assert batch.min() >= -1.0 and batch.max() <= 1.0

    def test_batched_inverse_matches_per_sample(self):
        # Members invert all their samples in one call; the result must match
        # one inverse per sample on the same latents.
        flow = FlowConfig(in_shape=(1, 8, 8), num_blocks=2, flows_per_block=2)
        dist = ArchDistribution.uniform(flow.ops, flow.topology, flow.num_cell_groups())
        rng = np.random.default_rng(4)
        members = []
        for j in range(3):
            model = FlowModel(flow, seed=j)
            for _, p in model.parameters():
                p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)
            arch = sample_discrete(dist, j)
            model.initialize_actnorm(rng.random((4, 1, 8, 8)), arch)
            members.append(EnsembleMember(arch, model, raw_log_mass=0.0, weight=1.0 / 3.0))
        ens = Ensemble(members)
        batched = generate_samples(ens, count=12, temperature=0.7, seed=5)
        looped = per_sample_generate(ens, count=12, temperature=0.7, seed=5)
        assert np.abs(batched - looped).max() <= 1e-10 * np.abs(looped).max()

    def test_bad_args(self):
        ens = self.build_tiny()
        with pytest.raises(ConfigError):
            generate_samples(ens, count=0)
        with pytest.raises(ConfigError):
            generate_samples(ens, count=1, temperature=-0.5)


class TestManifest:
    def test_save_load_roundtrip(self, tmp_path):
        data = mixture_data(200)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=5, learning_rate=1e-2,
                            batch_size=32, ensemble_size=2, seed=5)
        ens = build_ensemble(dist, data, cfg, seed=9)
        manifest = save_ensemble(ens, tmp_path)
        loaded = load_ensemble(manifest)
        np.testing.assert_allclose(loaded.weights, ens.weights, atol=1e-15)
        x = data[:5]
        np.testing.assert_array_equal(ensemble_waic(loaded, x), ensemble_waic(ens, x))
        for mem, orig in zip(loaded.members, ens.members):
            np.testing.assert_array_equal(mem.arch.weights, orig.arch.weights)

    @pytest.mark.parametrize("op", [2, -1, 1.0, True], ids=["past-menu", "negative",
                                                            "float", "bool"])
    def test_arch_op_outside_menu_rejected(self, tmp_path, op):
        data = mixture_data(150)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=2, learning_rate=1e-2,
                            batch_size=16, ensemble_size=1, seed=6)
        manifest = save_ensemble(build_ensemble(dist, data, cfg, seed=10), tmp_path)
        doc = json.loads(manifest.read_text())
        doc["members"][0]["arch_ops"][0] = op
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="arch_ops"):
            load_ensemble(manifest)

    def test_missing_member_checkpoint(self, tmp_path):
        data = mixture_data(150)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=2, learning_rate=1e-2,
                            batch_size=16, ensemble_size=2, seed=6)
        manifest = save_ensemble(build_ensemble(dist, data, cfg, seed=10), tmp_path)
        (tmp_path / "member_01.nadsflw").unlink()
        with pytest.raises(FileNotFoundError):
            load_ensemble(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ensemble(tmp_path / "nope.json")
