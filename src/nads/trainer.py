"""Joint optimization of flow parameters and architecture logits against the
negative-WAIC objective, plus plain maximum-likelihood retraining of fixed
architectures. One Adam optimizer drives both parameter sets as one float64
vector, whose views the parameters become when training starts; a parameter
that a step does not reach gets a zero gradient. All per-step randomness is
derived statelessly from (seed, step) so training can resume from a
checkpoint without changing the trajectory.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import write_table
from .errors import ConfigError, NumericError
from .flow_core import FlowConfig, FlowModel, decode_value, load_checkpoint, save_checkpoint
from .search_space import ArchDistribution, ArchSample, gumbel_noise, relaxed_weights
from .waic import waic_mc_objective
from .seeding import child_seed, rng_for

log = logging.getLogger(__name__)


# -- config ranges -------------------------------------------------------------

# What each range admits; NaN fails every test, and an infinite rate,
# temperature or clip norm fails "finite and > 0".
_RANGES = {
    "finite and > 0": lambda v: math.isfinite(v) and v > 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
}


def _ranged(default, valid: str):
    """A config field with `default` whose values must be `valid`, a range
    named in _RANGES; None always passes (an unset optional field)."""
    return field(default=default, metadata={"range": valid})


def _check_ranges(config, section: str) -> None:
    """Raise ConfigError naming `section.field` and the value for the first
    field of the dataclass `config` that lies outside its declared range."""
    for f in dataclasses.fields(config):
        valid = f.metadata.get("range")
        value = getattr(config, f.name)
        if valid is not None and value is not None and not _RANGES[valid](value):
            raise ConfigError(f"{section}.{f.name} must be {valid}, got {value!r}")


# -- temperature schedule ------------------------------------------------------


@dataclass(frozen=True)
class TauSchedule:
    kind: str = "constant"  # constant | linear | exponential
    tau0: float = _ranged(1.5, "finite and > 0")
    tau_min: float = _ranged(0.1, "finite and > 0")
    steps: int = _ranged(1, ">= 1")
    gamma: float = _ranged(0.999, "in (0, 1]")

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "exponential"):
            raise ConfigError(f"unknown temperature schedule {self.kind!r}")
        _check_ranges(self, "search.tau")


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
    """Adam over one parameter vector: `theta` holds the trained parameters
    in order, each parameter's data is a view of it, and the moments `m` and
    `v` share its layout."""

    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    skipped: int = 0

    @staticmethod
    def for_params(params: list[Tensor]) -> "AdamState":
        """Copy `params` into a new vector and bind their data to it."""
        theta = ad.bind_flat(params)
        return AdamState(theta, np.zeros_like(theta), np.zeros_like(theta))


def _per_param(vector: np.ndarray, params: list[Tensor]) -> list[np.ndarray]:
    """Views of `vector`, one per parameter, in the layout of `bind_flat`."""
    return np.split(vector, np.cumsum([p.data.size for p in params[:-1]]))


def adam_step(params: list[Tensor], grad: np.ndarray, state: AdamState, lr,
              beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """One bias-corrected Adam update of `state.theta`, in place, from the
    gradient vector `grad`; `lr` is one rate or one rate per entry.

    A parameter with a non-finite gradient entry is left untouched, its
    moments do not advance, and the skip is counted and logged."""
    if grad.shape != state.theta.shape:
        raise ConfigError(f"gradient {grad.shape} does not match parameters {state.theta.shape}")
    state.t += 1
    keep = True
    if not np.isfinite(grad).all():
        keep = np.ones(grad.shape, dtype=bool)
        for i, (g, k) in enumerate(zip(_per_param(grad, params), _per_param(keep, params))):
            if not np.isfinite(g).all():
                k[...] = False
                state.skipped += 1
                log.warning("adam: skipping parameter %d with non-finite gradient", i)
    # in place: whole-vector temporaries would raise the peak memory
    np.multiply(state.m, beta1, out=state.m, where=keep)
    np.add(state.m, (1.0 - beta1) * grad, out=state.m, where=keep)
    np.multiply(state.v, beta2, out=state.v, where=keep)
    np.add(state.v, (1.0 - beta2) * grad * grad, out=state.v, where=keep)
    step = lr * (state.m / (1.0 - beta1**state.t))
    step /= np.sqrt(state.v / (1.0 - beta2**state.t)) + eps
    np.subtract(state.theta, step, out=state.theta, where=keep)


def clip_gradients(grad: np.ndarray, params: list[Tensor], max_norm: float) -> float:
    """Scale `grad` in place so that the joint norm of the parameters whose
    gradients are finite is at most max_norm, and return that norm.

    Each parameter's squares are summed on their own and the sums added in
    parameter order: one sum over the whole vector would round differently."""
    finite = np.isfinite(grad).all()
    total = 0.0
    for g in _per_param(grad, params):
        if finite or np.isfinite(g).all():
            total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        grad *= max_norm / norm  # non-finite entries stay so, and Adam skips them
    return norm


# -- configs ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Architecture-search hyperparameters (defaults follow the reference
    training recipe: Adam at 1e-5, batches of 4, 10000 iterations, 4
    architecture samples per step, constant temperature 1.5)."""

    flow: FlowConfig
    learning_rate: float = _ranged(1e-5, "finite and > 0")
    batch_size: int = _ranged(4, ">= 1")
    iterations: int = _ranged(10_000, ">= 0")
    num_arch_samples: int = _ranged(4, ">= 1")
    tau: TauSchedule = field(default_factory=TauSchedule)
    beta1: float = _ranged(0.9, "in [0, 1)")
    beta2: float = _ranged(0.999, "in [0, 1)")
    eps: float = _ranged(1e-8, "finite and > 0")
    seed: int = 0
    grad_clip: float = _ranged(50.0, "finite and > 0")
    # defaults to the shared rate
    phi_learning_rate: float | None = _ranged(None, "finite and > 0")

    def __post_init__(self):
        _check_ranges(self, "search")


@dataclass(frozen=True)
class RetrainConfig:
    """Fixed-architecture maximum-likelihood training (reference recipe:
    150000 iterations at 1e-5; desk-scale runs override iterations)."""

    flow: FlowConfig
    iterations: int = _ranged(150_000, ">= 0")
    learning_rate: float = _ranged(1e-5, "finite and > 0")
    batch_size: int = _ranged(4, ">= 1")
    ensemble_size: int = _ranged(5, ">= 1")
    beta1: float = _ranged(0.9, "in [0, 1)")
    beta2: float = _ranged(0.999, "in [0, 1)")
    eps: float = _ranged(1e-8, "finite and > 0")
    seed: int = 0
    grad_clip: float = _ranged(50.0, "finite and > 0")

    def __post_init__(self):
        _check_ranges(self, "retrain")


@dataclass
class TraceRow:
    step: int
    loss: float
    tau: float
    grad_norm: float


def write_trace_csv(trace: list[TraceRow], path) -> None:
    write_table(path, ["step", "loss", "tau", "grad_norm"], zip(*map(astuple, trace)))


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


def _guarded_steps(phase: str, params: list[Tensor], adam: AdamState,
                   config: SearchConfig | RetrainConfig, steps: range, loss_at,
                   lr) -> tuple[list[tuple[int, float, float]], int | None]:
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
                    adam.theta[:] = last_good
                log.error("%s: non-finite loss at step %d; halting with last-good parameters",
                          phase, step)
                return taken, step
            ad.zero_grad(params)
            loss.backward()
            grad = ad.flat_grad(params)
            norm = clip_gradients(grad, params, config.grad_clip)
            last_good = adam.theta.copy()
            adam_step(params, grad, adam, lr, config.beta1, config.beta2, config.eps)
            taken.append((step, float(loss.data), norm))
            # Free this step's tape before the next forward builds its own,
            # and while the collector is paused: with the tape's objects
            # still counted as new, the collector would scan them all.
            del loss
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
        logits = Tensor(np.zeros(config.flow.logits_shape()), requires_grad=True)
    else:
        model, logits = state.model, state.logits
    params = [p for _, p in model.parameters()] + [logits]
    adam = AdamState.for_params(params) if state is None else state.adam
    start_step = 0 if state is None else state.step
    trace = [] if state is None else list(state.trace)
    lr = np.full(adam.theta.shape, config.learning_rate)
    lr[-logits.size :] = config.phi_learning_rate or config.learning_rate
    end = config.iterations if stop_at is None else min(stop_at, config.iterations)

    def loss_at(step: int) -> Tensor:
        batch = _draw_batch(x, config.batch_size, config.seed, step)
        return _search_loss(model, logits, batch, anneal_tau(config.tau, step),
                            config.num_arch_samples, config.seed, step)

    taken, halted_at = _guarded_steps("search", params, adam, config, range(start_step, end),
                                      loss_at, lr)
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


def _load_array(path, shape: tuple[int, ...]) -> np.ndarray:
    try:
        a = np.load(path)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"{path}: not a readable .npy array: {exc}") from exc
    if a.dtype != np.float64 or a.shape != shape:
        raise ConfigError(f"{path}: expected float64 {shape}, found {a.dtype} {a.shape}")
    return a


_STATE_FIELDS = {"step": int, "adam_t": int, "adam_skipped": int,
                 "trace": tuple[tuple[int, float, float, float], ...]}


@dataclass
class SearchState:
    """Everything needed to continue a search run mid-trajectory. The
    parameters of `model` and `logits` are views of `adam.theta`."""

    model: FlowModel
    logits: Tensor
    adam: AdamState
    step: int
    trace: list[TraceRow]

    def save(self, directory) -> None:
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        save_checkpoint(self.model, d / "theta.nadsflw")
        np.save(d / "logits.npy", self.logits.data)
        np.save(d / "adam_m.npy", self.adam.m)
        np.save(d / "adam_v.npy", self.adam.v)
        meta = {
            "step": self.step,
            "adam_t": self.adam.t,
            "adam_skipped": self.adam.skipped,
            "trace": [[r.step, r.loss, r.tau, r.grad_norm] for r in self.trace],
        }
        (d / "state.json").write_text(json.dumps(meta, sort_keys=True))

    @staticmethod
    def load(directory) -> "SearchState":
        d = Path(directory)
        model = load_checkpoint(d / "theta.nadsflw")
        logits = Tensor(_load_array(d / "logits.npy", model.config.logits_shape()),
                        requires_grad=True)
        adam = AdamState.for_params([p for _, p in model.parameters()] + [logits])
        adam.m, adam.v = (_load_array(d / f"adam_{k}.npy", adam.theta.shape) for k in "mv")
        try:
            meta = json.loads((d / "state.json").read_text())
            if not isinstance(meta, dict) or set(meta) != set(_STATE_FIELDS):
                raise ConfigError(f"must be an object with the keys {sorted(_STATE_FIELDS)}")
            fields = {k: decode_value(meta[k], hint, k) for k, hint in _STATE_FIELDS.items()}
        except (ValueError, RecursionError) as exc:  # ConfigError and JSONDecodeError too
            raise ConfigError(f"{d / 'state.json'}: {exc}") from exc
        adam.t, adam.skipped = fields["adam_t"], fields["adam_skipped"]
        return SearchState(model, logits, adam, fields["step"],
                           [TraceRow(*row) for row in fields["trace"]])


# -- fixed-architecture retraining ----------------------------------------------------


def retrain(arch: ArchSample, data: np.ndarray, config: RetrainConfig) -> FlowModel:
    """Maximum-likelihood training of one fixed discrete architecture from a
    fresh, independently seeded initialization. The model is built for
    `arch`, so it holds and trains only the ops that `arch` picks. Its
    `halted_at` is the step at which the divergence guard halted, or None."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 4 or x.shape[0] < 1:
        raise ConfigError(f"dataset must be a nonempty (N, C, H, W) array, got {x.shape}")

    model = FlowModel(config.flow, seed=child_seed(config.seed, "retrain_init"), arch=arch)
    model.initialize_actnorm(_draw_batch(x, max(2, config.batch_size), config.seed, -1))
    params = [p for _, p in model.parameters()]

    def loss_at(step: int) -> Tensor:
        return -model.log_prob(_draw_batch(x, config.batch_size, config.seed, step)).mean()

    _, model.halted_at = _guarded_steps("retrain", params, AdamState.for_params(params), config,
                                        range(config.iterations), loss_at, config.learning_rate)
    return model
