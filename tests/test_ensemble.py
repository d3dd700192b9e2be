"""Ensemble arithmetic (every member weighs 1/M), cross-checked bit-for-bit
against the WAIC module, convergence of the ensemble score to the exact WAIC
under the searched distribution, plus building/serialization/generation."""

import hashlib
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
    save_ensemble,
)
import nads.ensemble
from nads.autodiff import Tensor
from nads.errors import ConfigError, UsageError
from nads.flow_core import CHECKPOINT_MAGIC, FlowConfig, FlowModel
from nads.search_space import ArchDistribution, ArchSample, CellTopology, sample_discrete
from nads.trainer import RetrainConfig
from nads.waic import LogLikMatrix, waic_exact, waic_per_sample

from oracles import per_sample_generate

CHAIN = CellTopology(3, ((0, 1), (1, 2)))
TOY_FLOW = FlowConfig(in_shape=(2, 1, 1), num_blocks=1, flows_per_block=2, squeeze=False,
                      topology=CHAIN, ops=("zero", "identity"))


def mixture_data(count=400, seed=5):
    spec = SyntheticSpec("gaussian_mixture", count=count, seed=seed,
                         params={"means": [[-2.0, 0.0], [2.0, 0.0]], "sigmas": [0.4, 1.2]})
    return make_synthetic(spec).x.reshape(-1, 2, 1, 1)


def stub_member(lls, arch_op=1):
    """Member whose log_prob returns a fixed vector (formula tests only)."""
    w = np.zeros((2, 2))
    w[:, arch_op] = 1.0
    model = FlowModel(TOY_FLOW, seed=0, arch=ArchSample("discrete", w))
    member = EnsembleMember(model)
    member.log_prob = lambda x, lls=np.asarray(lls, dtype=np.float64): lls
    return member


def stub_ensemble(columns):
    return Ensemble([stub_member(col) for col in columns])


def ensemble_mean_loglik(ens, x):
    return waic_per_sample(member_logliks(ens, x)).mean


def ensemble_var_loglik(ens, x):
    return waic_per_sample(member_logliks(ens, x)).variance


class TestMoments:
    def test_mean_trivial_cases(self):
        x = np.zeros((2, 2, 1, 1))
        ens = stub_ensemble([[-1.0, -5.0], [-1.0, -5.0]])
        np.testing.assert_allclose(ensemble_mean_loglik(ens, x), [-1.0, -5.0])
        ens2 = stub_ensemble([[-1.0], [-3.0]])
        np.testing.assert_allclose(ensemble_mean_loglik(ens2, np.zeros((1, 2, 1, 1))), [-2.0])

    def test_mean_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        cols = rng.normal(size=(3, 5))
        ens = stub_ensemble(cols)
        got = ensemble_mean_loglik(ens, np.zeros((5, 2, 1, 1)))
        want = sum(cols[i] for i in range(3)) / 3.0
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_variance_hand_case(self):
        # lls (-1, -3), each weighing 1/2: 0.5(1 + 9) - 4 = 1
        ens = stub_ensemble([[-1.0], [-3.0]])
        np.testing.assert_allclose(ensemble_var_loglik(ens, np.zeros((1, 2, 1, 1))), [1.0])

    def test_variance_trivial_cases(self):
        x = np.zeros((3, 2, 1, 1))
        same = stub_ensemble([[-2.0, 0.0, 1.0]] * 3)
        np.testing.assert_allclose(ensemble_var_loglik(same, x), 0.0, atol=1e-15)
        single = stub_ensemble([[-1.0, 2.0, 0.5]])
        np.testing.assert_array_equal(ensemble_var_loglik(single, x), 0.0)

    def test_waic_hand_case_and_bound(self):
        x = np.zeros((1, 2, 1, 1))
        ens = stub_ensemble([[-1.0], [-3.0]])
        np.testing.assert_allclose(ensemble_waic(ens, x), [-3.0])
        rng = np.random.default_rng(1)
        ens2 = stub_ensemble(rng.normal(size=(4, 6)))
        xx = np.zeros((6, 2, 1, 1))
        assert (ensemble_waic(ens2, xx) <= ensemble_mean_loglik(ens2, xx) + 1e-12).all()

    def test_bit_level_cross_consistency_with_waic_module(self):
        rng = np.random.default_rng(2)
        cols = rng.normal(size=(3, 8))
        ens = stub_ensemble(cols)
        x = np.zeros((8, 2, 1, 1))
        report = waic_per_sample(LogLikMatrix(np.stack(cols, axis=1)))
        np.testing.assert_array_equal(ensemble_waic(ens, x), report.score)
        np.testing.assert_array_equal(ensemble_mean_loglik(ens, x), report.mean)
        np.testing.assert_array_equal(ensemble_var_loglik(ens, x), np.maximum(report.variance, 0))


class TestConvergence:
    """Criterion-6 style: the ensemble score of M members drawn from q must
    converge to the exact WAIC under q. Retraining is stubbed so that each
    member's log-likelihood is an oracle value of its architecture."""

    OPS = ("zero", "identity", "avg_pool_3x3")
    LOGLIK = np.array([-5.0, -1.0, 0.0])  # per op of the single edge

    def test_ensemble_waic_reaches_exact(self, monkeypatch):
        class OracleModel:
            def __init__(self, arch):
                self.arch = arch

            def log_prob(self, x, arch=None):
                return Tensor(np.full(len(x), TestConvergence.LOGLIK[self.arch.argmax_ops()[0]]))

        monkeypatch.setattr(nads.ensemble, "retrain",
                            lambda arch, data, config: OracleModel(arch))
        single = CellTopology(2, ((0, 1),))
        dist = ArchDistribution(np.log([[0.1, 0.3, 0.6]]), 1.0, self.OPS, single, 1)
        flow = FlowConfig(in_shape=(2, 1, 1), num_blocks=1, flows_per_block=1,
                          squeeze=False, topology=single, ops=self.OPS)
        cfg = RetrainConfig(flow=flow, iterations=0)
        exact = waic_exact(dist, lambda arch: self.LOGLIK[arch.argmax_ops()[0]]).score
        x = np.zeros((1, 2, 1, 1))
        estimates = np.array([
            ensemble_waic(build_ensemble(dist, x, cfg, num_members=500, seed=s), x)[0]
            for s in range(40)
        ])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) < 3 * se + 1e-3, (estimates.mean(), exact, se)


class TestBuild:
    def test_build_retrains_and_weights(self):
        data = mixture_data(300)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=10, learning_rate=1e-2,
                            batch_size=32, ensemble_size=3, seed=1)
        ens = build_ensemble(dist, data, cfg, seed=5)
        assert len(ens.members) == 3
        scores = ensemble_waic(ens, data[:7])
        assert scores.shape == (7,)
        assert np.isfinite(scores).all()
        # every member weighs 1/3
        cols = np.stack([mem.log_prob(data[:7]) for mem in ens.members], axis=1)
        np.testing.assert_array_equal(scores, waic_per_sample(LogLikMatrix(cols)).score)

    def test_degenerate_distribution_duplicates_kept(self):
        data = mixture_data(200)
        logits = np.array([[0.0, 50.0], [0.0, 50.0]])
        dist = ArchDistribution(logits, 1.0, ("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=5, learning_rate=1e-2,
                            batch_size=16, ensemble_size=3, seed=2)
        ens = build_ensemble(dist, data, cfg, seed=6)
        for mem in ens.members:
            assert (mem.model.arch.argmax_ops() == 1).all()
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
        # a single member is the whole estimate: no variance across members
        x = data[:5]
        np.testing.assert_array_equal(ensemble_waic(ens, x), ens.members[0].log_prob(x))

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigError):
            Ensemble([])

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
        batch2 = generate_samples(Ensemble([ens.members[0]]), count=3, temperature=0.0, seed=2)
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
            arch = sample_discrete(dist, j)
            model = FlowModel(flow, seed=j, arch=arch)
            for _, p in model.parameters():
                p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)
            model.initialize_actnorm(rng.random((4, 1, 8, 8)), arch)
            members.append(EnsembleMember(model))
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
        x = data[:5]
        np.testing.assert_array_equal(ensemble_waic(loaded, x), ensemble_waic(ens, x))
        for mem, orig in zip(loaded.members, ens.members):
            np.testing.assert_array_equal(mem.model.arch.weights, orig.model.arch.weights)

    def test_weight_key_of_older_manifests_ignored(self, tmp_path):
        data = mixture_data(150)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=2, learning_rate=1e-2,
                            batch_size=16, ensemble_size=2, seed=6)
        ens = build_ensemble(dist, data, cfg, seed=10)
        manifest = save_ensemble(ens, tmp_path)
        doc = json.loads(manifest.read_text())
        assert all("weight" not in e for e in doc["members"])
        for e, w in zip(doc["members"], (0.9, 0.1)):
            e["weight"] = w
        manifest.write_text(json.dumps(doc))
        x = data[:5]
        np.testing.assert_array_equal(ensemble_waic(load_ensemble(manifest), x),
                                      ensemble_waic(ens, x))

    def test_keys_of_older_manifests_ignored(self, tmp_path):
        """An entry carrying every key older versions wrote loads and scores
        as its two-key form does."""
        data = mixture_data(150)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=2, learning_rate=1e-2,
                            batch_size=16, ensemble_size=2, seed=6)
        manifest = save_ensemble(build_ensemble(dist, data, cfg, seed=10), tmp_path)
        doc = json.loads(manifest.read_text())
        assert all(set(e) == {"checkpoint", "sha256", "halted_at"} for e in doc["members"])
        x = data[:5]
        two_key = load_ensemble(manifest)
        for e in doc["members"]:
            e.update(arch_text="edge 0->1: identity\nedge 1->2: zero\n",
                     raw_log_mass=2 * np.log(0.5), weight=0.5, arch_ops=[1, 0])
        manifest.write_text(json.dumps(doc))
        older = load_ensemble(manifest)
        np.testing.assert_array_equal(member_logliks(older, x).values,
                                      member_logliks(two_key, x).values)
        np.testing.assert_array_equal(ensemble_waic(older, x), ensemble_waic(two_key, x))
        for mem, ref in zip(older.members, two_key.members):
            np.testing.assert_array_equal(mem.model.arch.weights, ref.model.arch.weights)

    @pytest.mark.parametrize("edit", [
        lambda h: h["arch"].__setitem__(0, "sep_conv_3x3"),  # an op kind, not in the menu
        lambda h: h["arch"].pop(),
        lambda h: h.update(arch="identity"),
        lambda h: h.pop("arch"),
    ], ids=["op-not-in-menu", "row-count", "not-a-list", "missing"])
    def test_forged_checkpoint_arch_rejected(self, tmp_path, edit):
        """The member's architecture comes from its hashed checkpoint; a
        header whose `arch` is forged, its hash recorded, is refused."""
        data = mixture_data(150)
        dist = ArchDistribution.uniform(("zero", "identity"), CHAIN, 1)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=2, learning_rate=1e-2,
                            batch_size=16, ensemble_size=1, seed=6)
        manifest = save_ensemble(build_ensemble(dist, data, cfg, seed=10), tmp_path)
        ckpt = tmp_path / "member_00.nadsflw"
        blob, n = ckpt.read_bytes(), len(CHECKPOINT_MAGIC)
        end = n + 4 + int.from_bytes(blob[n : n + 4], "little")
        header = json.loads(blob[n + 4 : end])
        edit(header)
        raw = json.dumps(header).encode()
        blob = blob[:n] + len(raw).to_bytes(4, "little") + raw + blob[end:]
        ckpt.write_bytes(blob)
        doc = json.loads(manifest.read_text())
        doc["members"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
        manifest.write_text(json.dumps(doc))
        with pytest.raises(UsageError, match="arch"):
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
