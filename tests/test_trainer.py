"""Optimizer identities, temperature schedules, search/retrain determinism,
checkpoint-resume trajectories, and the 2-op toy selection dynamics."""

import dataclasses
import gc
import logging
import weakref

import numpy as np
import pytest

from nads import autodiff as ad
from nads.autodiff import Tensor
from nads.data import SyntheticSpec, make_synthetic
from nads.errors import ConfigError
from nads.flow_core import FlowConfig, FlowModel
from nads.search_space import (
    ArchDistribution,
    ArchSample,
    CellTopology,
    gumbel_noise,
    sample_discrete,
)
from nads.seeding import child_seed
from nads.trainer import (
    _draw_batch,
    _guarded_steps,
    _search_loss,
    AdamState,
    RetrainConfig,
    SearchConfig,
    SearchState,
    TauSchedule,
    adam_step,
    anneal_tau,
    clip_gradients,
    retrain,
    search,
    write_trace_csv,
)
from oracles import (per_sample_search_loss, reference_adam, reference_adam_step,
                     reference_clip_gradients)

CHAIN = CellTopology(3, ((0, 1), (1, 2)))
TOY_FLOW = FlowConfig(in_shape=(2, 1, 1), num_blocks=1, flows_per_block=4, squeeze=False,
                      topology=CHAIN, ops=("zero", "identity"))
DESK_FLOW = FlowConfig(in_shape=(1, 8, 8), num_blocks=2, flows_per_block=4)


def mixture_data(count=2000, seed=5):
    spec = SyntheticSpec("gaussian_mixture", count=count, seed=seed,
                         params={"means": [[-2.0, 0.0], [2.0, 0.0]], "sigmas": [0.4, 1.2]})
    return make_synthetic(spec).x.reshape(-1, 2, 1, 1)


def toy_search_config(seed=0, iterations=300):
    return SearchConfig(flow=TOY_FLOW, learning_rate=1e-2, phi_learning_rate=2e-3,
                        batch_size=64, iterations=iterations, num_arch_samples=4,
                        tau=TauSchedule("constant", 1.5), seed=seed)


class TestAnnealTau:
    def test_constant_default(self):
        sched = TauSchedule()
        assert sched.tau0 == 1.5
        for step in (0, 10, 99999):
            assert anneal_tau(sched, step) == 1.5

    def test_linear_midpoint(self):
        sched = TauSchedule("linear", tau0=1.5, tau_min=0.1, steps=1000)
        assert anneal_tau(sched, 500) == pytest.approx(0.8)
        assert anneal_tau(sched, 0) == pytest.approx(1.5)
        assert anneal_tau(sched, 5000) == pytest.approx(0.1)

    def test_exponential(self):
        sched = TauSchedule("exponential", tau0=2.0, tau_min=0.05, gamma=0.999)
        assert anneal_tau(sched, 0) == pytest.approx(2.0)
        assert anneal_tau(sched, 100) == pytest.approx(2.0 * 0.999**100)
        assert anneal_tau(sched, 10**6) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TauSchedule(tau_min=0.0)
        with pytest.raises(ConfigError):
            TauSchedule(kind="cosine")
        with pytest.raises(ConfigError):
            anneal_tau(TauSchedule(), -1)


def _bound(*values):
    """Parameters for the vector optimizer and their Adam state."""
    params = [Tensor(np.array(v, dtype=float), requires_grad=True) for v in values]
    return params, AdamState.for_params(params)


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # bias correction makes the first update exactly lr * g / (|g| + eps)
        (p,), state = _bound([5.0])
        adam_step([p], np.array([1.0]), state, lr=0.1)
        assert p.data[0] == pytest.approx(5.0 - 0.1, abs=1e-8)

    def test_zero_grad_no_change(self):
        (p,), state = _bound([1.0, -2.0])
        adam_step([p], np.zeros(2), state, lr=0.5)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_matches_reference_trace_on_quadratic(self):
        # minimize (x - 3)^2 elementwise for 100 steps
        grad_fn = lambda x: 2.0 * (x - 3.0)
        ref = reference_adam(np.array([0.0, 10.0]), grad_fn, steps=100, lr=0.05)
        (p,), state = _bound([0.0, 10.0])
        for t in range(100):
            adam_step([p], grad_fn(p.data), state, lr=0.05)
            assert np.abs(p.data - ref[t + 1]).max() < 1e-10

    def test_nonfinite_grad_skipped_with_warning(self, caplog):
        # after one ordinary step, a NaN entry holds its whole parameter and
        # that parameter's moments, while the others move on
        (p, q), state = _bound([1.0, 2.0], [3.0])
        adam_step([p, q], np.array([1.0, 1.0, 1.0]), state, lr=0.1)
        before = [a.copy() for a in (p.data, state.m[:2], state.v[:2])]
        q_before, q_m = q.data.copy(), state.m[2]
        with caplog.at_level(logging.WARNING):
            adam_step([p, q], np.array([np.nan, 1.0, 1.0]), state, lr=0.1)
        for a, b in zip((p.data, state.m[:2], state.v[:2]), before):
            np.testing.assert_array_equal(a, b)
        assert q.data[0] != q_before[0] and state.m[2] != q_m
        assert state.skipped == 1 and state.t == 2
        assert any("non-finite" in r.message for r in caplog.records)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_square_is_not_nonfinite(self, caplog):
        # 1e200 is finite; its square is not, and that must not count as a skip
        (p, q), state = _bound([1.0], [2.0])
        with caplog.at_level(logging.WARNING):
            adam_step([p, q], np.array([1e200, 1.0]), state, lr=0.1)
        assert state.skipped == 0 and not caplog.records
        assert state.m[0] == pytest.approx(1e199) and q.data[0] != 2.0
        assert clip_gradients(np.array([1e200, 1.0]), [p, q], 1.0) == np.inf

    def test_none_grad_skipped_silently(self, caplog):
        # a parameter outside the graph (grad None) contributes zeros, which
        # leave it and its (zero) moments exactly as they were
        (p, q), state = _bound([1.0], [2.0])
        (q * 3.0).sum().backward()
        grad = ad.flat_grad([p, q])
        np.testing.assert_array_equal(grad, [0.0, 3.0])
        with caplog.at_level(logging.WARNING):
            adam_step([p, q], grad, state, lr=0.1)
        assert p.data[0] == 1.0 and state.m[0] == 0.0 and state.v[0] == 0.0
        assert q.data[0] != 2.0 and state.skipped == 0 and not caplog.records

    def test_works_on_tensors(self):
        # each parameter's data becomes a view of the vector the step updates
        (t,), state = _bound([1.0])
        assert np.shares_memory(t.data, state.theta)
        adam_step([t], np.array([1.0]), state, lr=0.1)
        assert t.data[0] == pytest.approx(0.9, abs=1e-8)

    def test_clip_gradients(self):
        params, _ = _bound([0.0], [0.0])
        grad = np.array([3.0, 4.0])
        norm = clip_gradients(grad, params, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.sqrt((grad * grad).sum()) == pytest.approx(1.0)


class TestParameterVector:
    def test_parameters_are_views_of_the_vector(self):
        res = search(mixture_data(200), toy_search_config(iterations=3))
        theta = res.state.adam.theta
        for _, p in res.model.parameters() + [("logits", res.state.logits)]:
            assert np.shares_memory(p.data, theta)

    def test_parameter_rebound_before_training_still_trains(self):
        data = mixture_data(200)
        model = FlowModel(TOY_FLOW, seed=0)
        arch = TestRetrain().arch(1)
        model.initialize_actnorm(data[:64], arch)
        params = [p for _, p in model.parameters()]
        params[-1].data = params[-1].data + 0.5
        rebound = params[-1].data.copy()
        state = AdamState.for_params(params)
        for step in range(3):
            model.zero_grad()
            (-model.log_prob(data[:64], arch).mean()).backward()
            adam_step(params, ad.flat_grad(params), state, 1e-2)
        assert np.shares_memory(params[-1].data, state.theta)
        assert not np.array_equal(params[-1].data, rebound)


def _train_both_ways(build, steps, lrs, grad_clip):
    """Train two copies of `build()` (parameters, loss at a step): one with
    the vector optimizer, one with the per-tensor reference loop. After each
    step the gradient norms, parameters and moments must be equal."""
    params, loss_at = build()
    ref_params, ref_loss_at = build()
    state = AdamState.for_params(params)
    lr = np.concatenate([np.full(p.data.size, r) for p, r in zip(params, lrs)])
    m = [np.zeros_like(p.data) for p in ref_params]
    v = [np.zeros_like(p.data) for p in ref_params]
    norms = []
    for step in range(steps):
        ad.zero_grad(params)
        loss_at(step).backward()
        grad = ad.flat_grad(params)
        norms.append(clip_gradients(grad, params, grad_clip))
        adam_step(params, grad, state, lr)
        ad.zero_grad(ref_params)
        ref_loss_at(step).backward()
        grads = [p.grad for p in ref_params]
        assert reference_clip_gradients(grads, grad_clip) == norms[-1]
        reference_adam_step([p.data for p in ref_params], grads, m, v, step + 1, lrs)
        for p, q in zip(params, ref_params):
            np.testing.assert_array_equal(p.data, q.data)
        np.testing.assert_array_equal(state.m, np.concatenate(m, axis=None))
        np.testing.assert_array_equal(state.v, np.concatenate(v, axis=None))
    return norms


class TestVectorMatchesPerTensorLoop:
    def test_desk_retrain(self):
        data = np.random.default_rng(0).random((16, 1, 8, 8))
        dist = ArchDistribution.uniform(DESK_FLOW.ops, DESK_FLOW.topology,
                                        DESK_FLOW.num_cell_groups())
        arch = sample_discrete(dist, 1)

        def build():
            model = FlowModel(DESK_FLOW, seed=3)
            model.initialize_actnorm(data[:8], arch)
            return ([p for _, p in model.parameters()],
                    lambda step: -model.log_prob(_draw_batch(data, 4, 0, step), arch).mean())

        params, _ = build()
        norms = _train_both_ways(build, 10, [1e-3] * len(params), 1.0)
        assert max(norms) > 1.0  # clipping fired

    def test_toy_search(self):
        data = mixture_data(400)

        def build():
            model = FlowModel(TOY_FLOW, seed=5)
            model.initialize_actnorm(data[:64])
            logits = Tensor(np.zeros(TOY_FLOW.logits_shape()), requires_grad=True)
            return ([p for _, p in model.parameters()] + [logits],
                    lambda step: _search_loss(model, logits, _draw_batch(data, 64, 0, step),
                                              1.5, 4, 0, step))

        params, _ = build()
        norms = _train_both_ways(build, 20, [1e-2] * (len(params) - 1) + [2e-3], 1.0)
        assert max(norms) > 1.0


class TestSearch:
    def test_zero_iterations_leaves_phi_at_init(self):
        cfg = toy_search_config(iterations=0)
        res = search(mixture_data(200), cfg)
        np.testing.assert_array_equal(res.dist.logits, 0.0)
        assert res.trace == []
        fresh = FlowModel(cfg.flow, seed=0)
        assert len(res.model.parameters()) == len(fresh.parameters())

    def test_same_seed_bit_identical(self):
        data = mixture_data(400)
        res_a = search(data, toy_search_config(seed=3, iterations=25))
        res_b = search(data, toy_search_config(seed=3, iterations=25))
        np.testing.assert_array_equal(res_a.dist.logits, res_b.dist.logits)
        for (na, pa), (nb, pb) in zip(res_a.model.parameters(), res_b.model.parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        assert [r.loss for r in res_a.trace] == [r.loss for r in res_b.trace]

    def test_different_seed_differs(self):
        data = mixture_data(400)
        res_a = search(data, toy_search_config(seed=3, iterations=10))
        res_b = search(data, toy_search_config(seed=4, iterations=10))
        assert not np.array_equal(res_a.dist.logits, res_b.dist.logits)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        data = mixture_data(400)
        cfg = toy_search_config(seed=7, iterations=24)
        full = search(data, cfg)

        half = search(data, cfg, stop_at=12)
        half.state.save(tmp_path / "ckpt")
        restored = SearchState.load(tmp_path / "ckpt")
        resumed = search(data, cfg, state=restored)

        np.testing.assert_array_equal(full.dist.logits, resumed.dist.logits)
        for (_, pa), (_, pb) in zip(full.model.parameters(), resumed.model.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert [r.loss for r in full.trace] == [r.loss for r in resumed.trace]

    @pytest.mark.parametrize("name, corrupt", [
        ("adam_m.npy", lambda p: np.save(p, np.load(p)[:-1])),
        ("adam_v.npy", lambda p: np.save(p, np.load(p).astype(np.float32))),
        ("logits.npy", lambda p: np.save(p, np.load(p)[:, :1])),
        ("state.json", lambda p: p.write_text(p.read_text().replace('"step": 12', '"step": "12"'))),
        ("state.json", lambda p: p.write_text("[]")),
    ], ids=["moments-one-short", "moments-float32", "logits-shape", "step-string", "not-object"])
    def test_load_rejects_mismatched_files(self, tmp_path, name, corrupt):
        search(mixture_data(200), toy_search_config(iterations=12)).state.save(tmp_path)
        SearchState.load(tmp_path)  # intact
        intact = (tmp_path / name).read_bytes()
        corrupt(tmp_path / name)
        assert (tmp_path / name).read_bytes() != intact
        with pytest.raises(ConfigError, match=name):
            SearchState.load(tmp_path)

    def test_smoothed_loss_improves_on_toy(self):
        # negative-WAIC loss, exponentially smoothed over a 100-step window,
        # ends below where it starts
        data = mixture_data(1500)
        res = search(data, toy_search_config(seed=1, iterations=400))
        alpha = 1.0 / 100.0
        smoothed = res.trace[0].loss
        early = None
        for i, row in enumerate(res.trace):
            smoothed = (1 - alpha) * smoothed + alpha * row.loss
            if i == 99:
                early = smoothed
        assert smoothed < early

    def test_phi_stays_finite_simplex(self):
        data = mixture_data(400)
        res = search(data, toy_search_config(seed=2, iterations=60))
        assert np.isfinite(res.dist.logits).all()
        np.testing.assert_allclose(res.dist.probs().sum(axis=1), 1.0, atol=1e-12)

    def test_toy_selects_good_op(self):
        # shortened version of the acceptance run: the heteroscedastic mixture
        # rewards the conditioning op; phi must move toward it.
        data = mixture_data(2000)
        res = search(data, toy_search_config(seed=0, iterations=700))
        assert (np.argmax(res.dist.logits, axis=1) == 1).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard_halts_with_last_good(self):
        data = mixture_data(300)
        cfg = SearchConfig(flow=TOY_FLOW, learning_rate=1e300, batch_size=16,
                           iterations=50, num_arch_samples=2, seed=0)
        res = search(data, cfg)
        assert res.halted_at is not None
        assert np.isfinite(res.dist.logits).all()
        for _, p in res.model.parameters():
            assert np.isfinite(p.data).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard_restores_parameters_of_last_finite_loss(self):
        # The halt puts back the parameters at which the last finite loss was
        # computed: those of a run that stops one step before the halt.
        data = mixture_data(300)
        cfg = SearchConfig(flow=TOY_FLOW, learning_rate=1e300, batch_size=16,
                           iterations=50, num_arch_samples=2, seed=0)
        res = search(data, cfg)
        assert res.halted_at is not None and res.halted_at >= 1
        ref = search(data, dataclasses.replace(cfg, iterations=res.halted_at - 1))
        np.testing.assert_array_equal(res.dist.logits, ref.dist.logits)
        for (_, p), (_, q) in zip(res.model.parameters(), ref.model.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_trace_csv_format(self, tmp_path):
        data = mixture_data(300)
        res = search(data, toy_search_config(seed=5, iterations=5))
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,tau,grad_norm"
        assert len(lines) == 6

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            search(np.zeros((0, 2, 1, 1)), toy_search_config())


class TestFoldedSearchStep:
    """A search step scores its M architecture samples as one M*B-row batch;
    it must match one forward pass per sample in the loss and every gradient."""

    @pytest.mark.parametrize("flow, batch_shape", [
        (DESK_FLOW, (4, 1, 8, 8)),
        (TOY_FLOW, (64, 2, 1, 1)),
    ], ids=["desk", "toy2d"])
    def test_matches_per_sample_loop(self, flow, batch_shape):
        rng = np.random.default_rng(11)
        model = FlowModel(flow, seed=3)
        for _, p in model.parameters():
            p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)
        batch = rng.normal(0.5, 0.3, size=batch_shape)
        model.initialize_actnorm(batch)
        rows = flow.num_cell_groups() * flow.topology.num_edges
        logits = Tensor(rng.normal(0.0, 0.5, (rows, len(flow.ops))), requires_grad=True)
        params = [p for _, p in model.parameters()] + [logits]
        m, seed, step, tau = 4, 5, 2, 1.5

        def loss_and_grads(loss):
            model.zero_grad()
            logits.grad = None
            loss.backward()
            return loss.item(), [p.grad for p in params]

        folded, folded_grads = loss_and_grads(_search_loss(model, logits, batch, tau, m, seed, step))
        noises = [gumbel_noise(logits.shape, child_seed(seed, "gumbel", step, j)) for j in range(m)]
        looped, looped_grads = loss_and_grads(per_sample_search_loss(model, logits, batch,
                                                                     noises, tau))
        assert abs(folded - looped) <= 1e-12 * abs(looped)
        for (name, _), a, b in zip(model.parameters() + [("phi/logits", logits)],
                                   folded_grads, looped_grads):
            assert (a is None) == (b is None), name
            if b is not None:
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


def test_steps_leave_no_cyclic_garbage():
    # Training steps run with the cyclic collector paused, which is only
    # safe while a step creates no reference cycles.
    data = np.random.default_rng(0).random((8, 1, 8, 8))
    dist = ArchDistribution.uniform(DESK_FLOW.ops, DESK_FLOW.topology,
                                    DESK_FLOW.num_cell_groups())
    arch = sample_discrete(dist, 1)
    gc.collect()
    gc.disable()
    try:
        search(data, SearchConfig(flow=DESK_FLOW, iterations=1))
        retrain(arch, data, RetrainConfig(flow=DESK_FLOW, iterations=1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_step_tape_dies_with_its_step():
    # The previous step's loss, and with it its whole tape, must be freed
    # before the next step's forward builds a new one. A Tensor takes no weak
    # reference, so the probes watch the arrays that only the loss and an
    # inner node of its tape hold.
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    probes = []

    def loss_at(step):
        if probes:
            assert [p() for p in probes[-1]] == [None, None], f"step {step - 1} is alive"
        inner = w * 3.0
        loss = (inner**2).sum()
        probes.append((weakref.ref(loss.data), weakref.ref(inner.data)))
        return loss

    config = RetrainConfig(flow=TOY_FLOW, learning_rate=0.1)
    taken, halted_at = _guarded_steps("retrain", [w], AdamState.for_params([w]), config,
                                      range(3), loss_at, config.learning_rate)
    assert halted_at is None and [s for s, _, _ in taken] == [0, 1, 2]


class TestRetrain:
    def arch(self, op):
        w = np.zeros((2, 2))
        w[:, op] = 1.0
        return ArchSample("discrete", w)

    def test_bits_per_dim_decreases_early(self):
        # smoothed over windows of 10 steps: the first window's average loss
        # exceeds the last window's within the first 100 steps.
        data = mixture_data(1500, seed=8)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=100, learning_rate=1e-2,
                            batch_size=128, ensemble_size=1, seed=2)
        model = FlowModel(cfg.flow, seed=0)
        # track the full-data bpd trajectory externally
        arch = self.arch(1)
        traj = []
        model.initialize_actnorm(data[:256], arch)
        params = [p for _, p in model.parameters()]
        state = AdamState.for_params(params)
        for step in range(100):
            batch = _draw_batch(data, 128, 2, step)
            loss = -model.log_prob(batch, arch).mean()
            # bits per dim of 2-D points on a 256-level grid
            traj.append(loss.item() / (2.0 * np.log(2.0)) + 8.0)
            model.zero_grad()
            loss.backward()
            grad = ad.flat_grad(params)
            clip_gradients(grad, params, 50.0)
            adam_step(params, grad, state, 1e-2)
        windows = [np.mean(traj[i : i + 10]) for i in range(0, 100, 10)]
        assert windows[-1] < windows[0]
        assert min(windows) == pytest.approx(windows[-1], abs=0.5)

    def test_zero_iterations_returns_initialization(self):
        data = mixture_data(300)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=0, learning_rate=1e-2,
                            batch_size=32, ensemble_size=1, seed=9)
        model = retrain(self.arch(1), data, cfg)
        from nads.seeding import child_seed
        from nads.trainer import _draw_batch

        fresh = FlowModel(cfg.flow, seed=child_seed(9, "retrain_init"))
        fresh.initialize_actnorm(_draw_batch(data, 32, 9, -1), self.arch(1))
        for (_, pa), (_, pb) in zip(model.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_same_seed_identical_parameters(self):
        data = mixture_data(300)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=15, learning_rate=1e-2,
                            batch_size=32, ensemble_size=1, seed=4)
        m1 = retrain(self.arch(1), data, cfg)
        m2 = retrain(self.arch(1), data, cfg)
        for (_, pa), (_, pb) in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard_keeps_last_good(self, caplog):
        data = mixture_data(300)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=50, learning_rate=1e300,
                            batch_size=16, ensemble_size=1, seed=0)
        with caplog.at_level(logging.ERROR, logger="nads.trainer"):
            model = retrain(self.arch(1), data, cfg)
        for _, p in model.parameters():
            assert np.isfinite(p.data).all()
        assert any(r.getMessage().startswith("retrain: non-finite loss")
                   for r in caplog.records)

    def test_relaxed_arch_rejected(self):
        data = mixture_data(100)
        cfg = RetrainConfig(flow=TOY_FLOW, iterations=1, ensemble_size=1)
        relaxed = ArchSample("relaxed", np.full((2, 2), 0.5))
        with pytest.raises(ConfigError):
            retrain(relaxed, data, cfg)


class TestConfigValidation:
    def test_search_config_rejects_bad_values(self):
        for kw in ({"learning_rate": 0.0}, {"batch_size": 0}, {"num_arch_samples": 0},
                   {"phi_learning_rate": -1.0}):
            with pytest.raises(ConfigError):
                SearchConfig(flow=TOY_FLOW, **kw)

    def test_retrain_config_rejects_bad_values(self):
        for kw in ({"learning_rate": 0.0}, {"batch_size": 0}, {"ensemble_size": 0}):
            with pytest.raises(ConfigError):
                RetrainConfig(flow=TOY_FLOW, **kw)
