"""Joint optimization of flow parameters and architecture logits against the
negative-WAIC objective, plus plain maximum-likelihood retraining of fixed
architectures. One Adam optimizer drives both parameter sets; all per-step
randomness is derived statelessly from (seed, step) so training can resume
from a checkpoint without changing the trajectory.
"""

from __future__ import annotations

import csv
import gc
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError
from .flow_core import FlowConfig, FlowModel, load_checkpoint, save_checkpoint
from .search_space import ArchDistribution, ArchSample, gumbel_noise, relaxed_weights
from .waic import waic_mc_objective
from .seeding import child_seed, rng_for

log = logging.getLogger(__name__)


# -- temperature schedule ------------------------------------------------------


@dataclass(frozen=True)
class TauSchedule:
    kind: str = "constant"  # constant | linear | exponential
    tau0: float = 1.5
    tau_min: float = 0.1
    steps: int = 1
    gamma: float = 0.999

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "exponential"):
            raise ConfigError(f"unknown temperature schedule {self.kind!r}")
        if not self.tau0 > 0 or not self.tau_min > 0:
            raise ConfigError("temperatures must be positive")
        if self.steps < 1:
            raise ConfigError("schedule length must be at least 1")


def anneal_tau(schedule: TauSchedule, step: int) -> float:
    if step < 0:
        raise ConfigError(f"step must be nonnegative, got {step}")
    if schedule.kind == "constant":
        return schedule.tau0
    if schedule.kind == "linear":
        frac = min(step / schedule.steps, 1.0)
        return schedule.tau0 + (schedule.tau_min - schedule.tau0) * frac
    return max(schedule.tau0 * schedule.gamma**step, schedule.tau_min)


# -- Adam ------------------------------------------------------------------------


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    skipped: int = 0

    @staticmethod
    def for_params(params) -> "AdamState":
        return AdamState(
            m=[np.zeros_like(p.data if isinstance(p, Tensor) else p) for p in params],
            v=[np.zeros_like(p.data if isinstance(p, Tensor) else p) for p in params],
        )


def adam_step(params, grads, state: AdamState, lr, beta1=0.9, beta2=0.999, eps=1e-8,
              lr_per_param=None) -> None:
    """One bias-corrected Adam update, in place.

    A parameter whose gradient is None (not on this step's graph) is left
    untouched silently. One with a non-finite gradient is left untouched too,
    and that skip is counted and logged. Neither one's moments advance.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigError("params, grads, and optimizer state must align")
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        data = p.data if isinstance(p, Tensor) else p
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            state.skipped += 1
            log.warning("adam: skipping parameter %d with non-finite gradient", i)
            continue
        if g.shape != data.shape:
            raise ConfigError(f"gradient shape {g.shape} does not match parameter {data.shape}")
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        step_lr = lr if lr_per_param is None else lr_per_param[i]
        data -= step_lr * m_hat / (np.sqrt(v_hat) + eps)


def global_grad_norm(grads) -> float:
    total = 0.0
    for g in grads:
        if g is not None and np.all(np.isfinite(g)):
            total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_gradients(grads, max_norm: float) -> float:
    """Scale all finite gradients so their joint norm is at most max_norm."""
    norm = global_grad_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            if g is not None and np.all(np.isfinite(g)):
                g *= scale
    return norm


# -- configs ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Architecture-search hyperparameters (defaults follow the reference
    training recipe: Adam at 1e-5, batches of 4, 10000 iterations, 4
    architecture samples per step, constant temperature 1.5)."""

    flow: FlowConfig
    learning_rate: float = 1e-5
    batch_size: int = 4
    iterations: int = 10_000
    num_arch_samples: int = 4
    tau: TauSchedule = field(default_factory=TauSchedule)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    grad_clip: float = 50.0
    phi_learning_rate: float | None = None  # defaults to the shared rate

    def __post_init__(self):
        if (
            self.learning_rate <= 0
            or self.batch_size < 1
            or self.iterations < 0
            or self.num_arch_samples < 1
            or not (0 <= self.beta1 < 1)
            or not (0 <= self.beta2 < 1)
            or self.eps <= 0
        ):
            raise ConfigError("invalid search hyperparameters")
        if self.phi_learning_rate is not None and self.phi_learning_rate <= 0:
            raise ConfigError("phi learning rate must be positive")


@dataclass(frozen=True)
class RetrainConfig:
    """Fixed-architecture maximum-likelihood training (reference recipe:
    150000 iterations at 1e-5; desk-scale runs override iterations)."""

    flow: FlowConfig
    iterations: int = 150_000
    learning_rate: float = 1e-5
    batch_size: int = 4
    ensemble_size: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    grad_clip: float = 50.0

    def __post_init__(self):
        if (
            self.iterations < 0
            or self.learning_rate <= 0
            or self.batch_size < 1
            or self.ensemble_size < 1
        ):
            raise ConfigError("invalid retraining hyperparameters")


@dataclass
class TraceRow:
    step: int
    loss: float
    tau: float
    grad_norm: float


def write_trace_csv(trace: list[TraceRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "tau", "grad_norm"])
        for row in trace:
            writer.writerow([row.step, repr(row.loss), repr(row.tau), repr(row.grad_norm)])


# -- search ------------------------------------------------------------------------


@dataclass
class SearchResult:
    model: FlowModel
    dist: ArchDistribution
    trace: list[TraceRow]
    halted_at: int | None = None  # step at which the divergence guard fired
    state: "SearchState | None" = None


def _draw_batch(x: np.ndarray, batch_size: int, seed: int, step: int) -> np.ndarray:
    rng = rng_for(seed, "batch", step)
    n = x.shape[0]
    take = min(batch_size, n)
    idx = rng.choice(n, size=take, replace=False)
    return x[idx]


@contextmanager
def _gc_paused():
    """Keep the cyclic collector off inside one training step. The tape
    holds no reference cycles, so a collection there frees nothing."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _search_loss(model: FlowModel, logits: Tensor, batch: np.ndarray, tau: float,
                 num_samples: int, seed: int, step: int) -> Tensor:
    """Negative WAIC of the batch over `num_samples` relaxed architectures,
    in one forward: the batch is tiled once per sample and row group j is
    scored under the weights drawn from Gumbel noise (seed, step, j)."""
    noise = np.stack([gumbel_noise(logits.shape, child_seed(seed, "gumbel", step, j))
                      for j in range(num_samples)])
    weights = relaxed_weights(logits, noise, tau)
    tiled = np.tile(batch, (num_samples, 1, 1, 1))
    ll = model.log_prob(tiled, weights_override=weights).reshape(num_samples, -1)
    return waic_mc_objective([ll[j] for j in range(num_samples)])


def _snapshot(tensors: list[Tensor]) -> list[np.ndarray]:
    return [t.data.copy() for t in tensors]


def _restore(tensors: list[Tensor], snap: list[np.ndarray]) -> None:
    for t, s in zip(tensors, snap):
        t.data = s.copy()


def _guarded_steps(phase: str, params: list[Tensor], adam: AdamState,
                   config: SearchConfig | RetrainConfig, steps: range, loss_at,
                   lr_per_param=None) -> tuple[list[tuple[int, float, float]], int | None]:
    """One clipped Adam step on `loss_at(step)` per step, with the cyclic
    collector paused. The divergence guard stops at the first non-finite
    loss: it restores the parameters at which the last finite loss was
    computed (a halt at the first step has none), and logs the halt.

    Returns (step, loss, gradient norm) of each step taken, and the step at
    which the guard halted, or None."""
    taken = []
    last_good = None  # the parameters of the last finite loss, copied before its update
    for step in steps:
        with _gc_paused():
            try:
                loss = loss_at(step)
                diverged = not np.isfinite(loss.data)
            except NumericError:
                diverged = True
            if diverged:
                if last_good is not None:
                    _restore(params, last_good)
                log.error("%s: non-finite loss at step %d; halting with last-good parameters",
                          phase, step)
                return taken, step
            ad.zero_grad(params)
            loss.backward()
            grads = [p.grad for p in params]
            norm = clip_gradients(grads, config.grad_clip)
            last_good = _snapshot(params)
            adam_step(params, grads, adam, config.learning_rate,
                      config.beta1, config.beta2, config.eps, lr_per_param=lr_per_param)
        taken.append((step, float(loss.data), norm))
    return taken, None


def search(data: np.ndarray, config: SearchConfig, state: "SearchState | None" = None,
           stop_at: int | None = None) -> SearchResult:
    """Optimize flow parameters and architecture logits jointly.

    `data` is the training tensor (N, C, H, W). Passing a `state` resumes
    a previous run; the continued trajectory is identical to an
    uninterrupted one because each step's randomness depends only on
    (seed, step).
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 4 or x.shape[0] < 1:
        raise ConfigError(f"dataset must be a nonempty (N, C, H, W) array, got {x.shape}")

    if state is not None and state.model.config != config.flow:
        raise ConfigError("resume state was built for a different flow configuration")
    if state is None:
        model = FlowModel(config.flow, seed=child_seed(config.seed, "model_init"))
        init_batch = _draw_batch(x, max(2, config.batch_size), config.seed, -1)
        model.initialize_actnorm(init_batch)
        num_rows = config.flow.num_cell_groups() * config.flow.topology.num_edges
        logits = Tensor(np.zeros((num_rows, len(config.flow.ops))), requires_grad=True)
        theta = [p for _, p in model.parameters()]
        adam = AdamState.for_params(theta + [logits])
        start_step = 0
        trace: list[TraceRow] = []
    else:
        model = state.model
        logits = state.logits
        adam = state.adam
        start_step = state.step
        trace = list(state.trace)
        theta = [p for _, p in model.parameters()]

    params = theta + [logits]
    lr_phi = config.phi_learning_rate or config.learning_rate
    lrs = [config.learning_rate] * len(theta) + [lr_phi]
    end = config.iterations if stop_at is None else min(stop_at, config.iterations)

    def loss_at(step: int) -> Tensor:
        batch = _draw_batch(x, config.batch_size, config.seed, step)
        return _search_loss(model, logits, batch, anneal_tau(config.tau, step),
                            config.num_arch_samples, config.seed, step)

    taken, halted_at = _guarded_steps("search", params, adam, config, range(start_step, end),
                                      loss_at, lr_per_param=lrs)
    trace += [TraceRow(step, loss, anneal_tau(config.tau, step), norm)
              for step, loss, norm in taken]

    final_tau = anneal_tau(config.tau, max(end - 1, 0))
    dist = ArchDistribution(
        logits.data.copy(),
        tau=final_tau,
        ops=config.flow.ops,
        topology=config.flow.topology,
        num_cell_groups=config.flow.num_cell_groups(),
    )
    final_step = halted_at if halted_at is not None else end
    return SearchResult(
        model=model,
        dist=dist,
        trace=trace,
        halted_at=halted_at,
        state=SearchState(model, logits, adam, final_step, trace),
    )


@dataclass
class SearchState:
    """Everything needed to continue a search run mid-trajectory."""

    model: FlowModel
    logits: Tensor
    adam: AdamState
    step: int
    trace: list[TraceRow]

    def save(self, directory) -> None:
        from pathlib import Path

        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        save_checkpoint(self.model, d / "theta.nadsflw")
        np.save(d / "logits.npy", self.logits.data)
        flat_m = np.concatenate([m.ravel() for m in self.adam.m])
        flat_v = np.concatenate([v.ravel() for v in self.adam.v])
        np.save(d / "adam_m.npy", flat_m)
        np.save(d / "adam_v.npy", flat_v)
        meta = {
            "step": self.step,
            "adam_t": self.adam.t,
            "adam_skipped": self.adam.skipped,
            "trace": [[r.step, r.loss, r.tau, r.grad_norm] for r in self.trace],
        }
        (d / "state.json").write_text(json.dumps(meta, sort_keys=True))

    @staticmethod
    def load(directory) -> "SearchState":
        from pathlib import Path

        d = Path(directory)
        model = load_checkpoint(d / "theta.nadsflw")
        logits = Tensor(np.load(d / "logits.npy"), requires_grad=True)
        meta = json.loads((d / "state.json").read_text())
        params = [p for _, p in model.parameters()] + [logits]
        flat_m = np.load(d / "adam_m.npy")
        flat_v = np.load(d / "adam_v.npy")
        m, v = [], []
        pos = 0
        for p in params:
            n = p.data.size
            m.append(flat_m[pos : pos + n].reshape(p.data.shape).copy())
            v.append(flat_v[pos : pos + n].reshape(p.data.shape).copy())
            pos += n
        adam = AdamState(m=m, v=v, t=meta["adam_t"], skipped=meta["adam_skipped"])
        trace = [TraceRow(int(s), float(l), float(t), float(g)) for s, l, t, g in meta["trace"]]
        return SearchState(model, logits, adam, meta["step"], trace)


# -- fixed-architecture retraining ----------------------------------------------------


def retrain(arch: ArchSample, data: np.ndarray, config: RetrainConfig) -> FlowModel:
    """Maximum-likelihood training of one fixed discrete architecture from a
    fresh, independently seeded initialization."""
    if arch.mode != "discrete":
        raise ConfigError("retraining requires a discrete architecture sample")
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 4 or x.shape[0] < 1:
        raise ConfigError(f"dataset must be a nonempty (N, C, H, W) array, got {x.shape}")

    model = FlowModel(config.flow, seed=child_seed(config.seed, "retrain_init"))
    model.initialize_actnorm(_draw_batch(x, max(2, config.batch_size), config.seed, -1), arch)
    params = [p for _, p in model.parameters()]
    adam = AdamState.for_params(params)

    def loss_at(step: int) -> Tensor:
        return -model.log_prob(_draw_batch(x, config.batch_size, config.seed, step), arch).mean()

    _guarded_steps("retrain", params, adam, config, range(config.iterations), loss_at)
    return model
