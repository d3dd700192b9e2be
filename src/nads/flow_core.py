"""Invertible flow engine: per-channel affine normalization, PLU-factored
1x1 channel mixing, and searchable affine coupling, composed into a
multi-scale model with exact log-determinants and exact inverses.

Numerics are float64 throughout. The forward/log-density path runs on the
autodiff tape (so one backward call yields analytic gradients for every
parameter); the inverse path is plain numpy. The 1x1 mix starts from a
partial-pivot LU of a random rotation (`_plu`) and is inverted by forward
substitution through L and back substitution through U, one channel row at
a time.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NotInitializedError, NumericError, ShapeError, UsageError
from .search_space import OP_KINDS, OPS, ArchSample, Cell, CellTopology
from .seeding import rng_for

log = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))
MIN_COUPLING_SCALE = 1e-12
CHECKPOINT_MAGIC = b"NADSFLW2"


def _per_channel(v: Tensor) -> Tensor:
    return v.reshape(1, -1, 1, 1)


class ActNorm:
    """Per-channel y = scale * x + bias with data-dependent initialization."""

    def __init__(self, channels: int):
        self.channels = channels
        self.log_scale = Tensor(np.zeros(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)
        self.initialized = False

    @property
    def scale(self) -> np.ndarray:
        return np.exp(self.log_scale.data)

    def initialize(self, batch: np.ndarray) -> None:
        """Set scale and bias so this batch leaves with zero mean, unit variance."""
        if batch.shape[0] < 2:
            raise ConfigError("actnorm initialization needs a batch of at least 2 samples")
        mean = batch.mean(axis=(0, 2, 3))
        std = batch.std(axis=(0, 2, 3))
        degenerate = std < 1e-12
        if degenerate.any():
            log.warning(
                "actnorm: %d constant channel(s); falling back to scale 1",
                int(degenerate.sum()),
            )
        safe_std = np.where(degenerate, 1.0, std)
        self.log_scale.data = -np.log(safe_std)
        self.bias.data = -mean / safe_std
        self.initialized = True

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        if not self.initialized:
            raise NotInitializedError("actnorm not initialized: run initialize_actnorm first")
        h, w = x.shape[2], x.shape[3]
        y = x * _per_channel(self.log_scale.exp()) + _per_channel(self.bias)
        logdet = self.log_scale.sum() * float(h * w)
        return y, logdet

    def inverse(self, y: np.ndarray) -> np.ndarray:
        if not self.initialized:
            raise NotInitializedError("actnorm not initialized: run initialize_actnorm first")
        return (y - self.bias.data.reshape(1, -1, 1, 1)) / np.exp(
            self.log_scale.data
        ).reshape(1, -1, 1, 1)

    def parameters(self):
        return [("actnorm/log_scale", self.log_scale), ("actnorm/bias", self.bias)]


def _plu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial-pivot LU of a nonsingular square matrix: (perm, L, U) with
    a[i] = (L @ U)[perm[i]], L unit lower triangular and U upper triangular.
    Each pivot is the first entry of largest magnitude in its column, the
    row LAPACK's getrf picks."""
    u = np.array(a, dtype=np.float64)
    c = len(u)
    lo = np.eye(c)
    rows = np.arange(c)  # row k of L @ U is row rows[k] of a
    for k in range(c - 1):
        p = k + int(np.argmax(np.abs(u[k:, k])))
        u[[k, p]] = u[[p, k]]
        lo[[k, p], :k] = lo[[p, k], :k]
        rows[[k, p]] = rows[[p, k]]
        lo[k + 1 :, k] = u[k + 1 :, k] / u[k, k]
        u[k + 1 :, k + 1 :] -= np.outer(lo[k + 1 :, k], u[k, k + 1 :])
    perm = np.empty(c, dtype=np.int64)
    perm[rows] = np.arange(c)
    return perm, lo, np.triu(u)


class Invertible1x1:
    """Channel mixing by W = P L (U + diag(sign * exp(s))).

    P is a fixed permutation and sign is fixed, so W stays invertible for any
    parameter values and log|det W| is just sum(s) (times H*W spatially).
    W starts as a random rotation drawn from `rng`; without `rng` it starts
    as the identity (P the identity, signs +1, every parameter 0).
    """

    def __init__(self, channels: int, rng: np.random.Generator | None = None):
        self.channels = channels
        if rng is None:
            self.perm, lo, up = np.arange(channels), np.eye(channels), np.eye(channels)
        else:
            w0 = np.linalg.qr(rng.normal(size=(channels, channels)))[0]
            self.perm, lo, up = _plu(w0)  # row i of P picks source perm[i]
        diag = np.diag(up).copy()
        self.sign_diag = np.sign(diag)
        self.lower = Tensor(np.tril(lo, -1), requires_grad=True)
        self.upper = Tensor(np.triu(up, 1), requires_grad=True)
        self.log_diag = Tensor(np.log(np.abs(diag)), requires_grad=True)
        self._l_mask = np.tril(np.ones((channels, channels)), -1)
        self._u_mask = np.triu(np.ones((channels, channels)), 1)
        self._eye = np.eye(channels)

    def _factors(self) -> tuple[np.ndarray, Tensor, Tensor]:
        lo = self.lower * Tensor(self._l_mask) + Tensor(self._eye)
        diag = Tensor(self._eye) * (self.log_diag.exp() * Tensor(self.sign_diag)).reshape(-1, 1)
        up = self.upper * Tensor(self._u_mask) + diag
        pmat = np.zeros((self.channels, self.channels))
        pmat[np.arange(self.channels), self.perm] = 1.0
        return pmat, lo, up

    def weight(self) -> Tensor:
        pmat, lo, up = self._factors()
        return Tensor(pmat) @ (lo @ up)

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h, w = x.shape[2], x.shape[3]
        y = ad.channel_mix(x, self.weight())
        logdet = self.log_diag.sum() * float(h * w)
        return y, logdet

    def inverse(self, y: np.ndarray) -> np.ndarray:
        n, c, h, w = y.shape
        with ad.no_grad():
            _, lo, up = self._factors()
        lo, up = lo.data, up.data
        rhs = y.transpose(1, 0, 2, 3).reshape(c, -1)
        # P^T y : entry perm[i] of the solve input is row i of y
        x = np.empty_like(rhs)
        x[self.perm] = rhs
        for i in range(c):  # L has a unit diagonal
            x[i] -= lo[i, :i] @ x[:i]
        for i in reversed(range(c)):
            x[i] = (x[i] - up[i, i + 1 :] @ x[i + 1 :]) / up[i, i]
        return x.reshape(c, n, h, w).transpose(1, 0, 2, 3)

    def parameters(self):
        return [
            ("inv1x1/lower", self.lower),
            ("inv1x1/upper", self.upper),
            ("inv1x1/log_diag", self.log_diag),
        ]


class AffineCoupling:
    """Scale-and-shift of the trailing channels conditioned on the leading ones.

    The effective scale is sigmoid(s + 2), bounded in (0, 1); its log-det
    contribution is the elementwise log-sigmoid summed per sample.
    """

    def __init__(self, channels: int, topology: CellTopology, ops: tuple[str, ...],
                 rng: np.random.Generator | None = None, held: tuple[str, ...] | None = None):
        if channels < 2:
            raise ConfigError("affine coupling needs at least 2 channels")
        self.channels = channels
        self.c_cond = (channels + 1) // 2
        self.c_tr = channels - self.c_cond
        self.cell = Cell(self.c_cond, self.c_tr, topology, ops, rng, held)

    def _scale_and_shift(self, x1: Tensor, edges) -> tuple[Tensor, Tensor, Tensor]:
        s, t = self.cell.forward(x1, edges)
        pre = s + 2.0
        return pre.sigmoid(), pre.log_sigmoid(), t

    def forward(self, x: Tensor, edges) -> tuple[Tensor, Tensor]:
        x1 = x[:, : self.c_cond]
        x2 = x[:, self.c_cond :]
        scale, log_scale, t = self._scale_and_shift(x1, edges)
        y2 = x2 * scale + t
        logdet = log_scale.sum(axis=(1, 2, 3))
        return ad.concat([x1, y2], axis=1), logdet

    def inverse(self, y: np.ndarray, edges) -> np.ndarray:
        y1 = y[:, : self.c_cond]
        y2 = y[:, self.c_cond :]
        with ad.no_grad():
            scale, _, t = self._scale_and_shift(Tensor(y1), edges)
        if scale.data.min() < MIN_COUPLING_SCALE:
            raise NumericError(
                f"coupling scale below {MIN_COUPLING_SCALE:g}; inverse is ill-conditioned"
            )
        x2 = (y2 - t.data) / scale.data
        return np.concatenate([y1, x2], axis=1)

    def parameters(self):
        return [(f"coupling/{n}", p) for n, p in self.cell.parameters()]


class FlowStep:
    """Actnorm, the 1x1 mix and, when the step has cell rows, the coupling.
    `rows` are the architecture-logits rows of the cell's edges, and `held`
    names one op per logits row for a member model (see FlowModel)."""

    def __init__(self, channels: int, config: FlowConfig, rows: range | None,
                 rng: np.random.Generator | None, held: tuple[str, ...] | None):
        self.rows = rows
        self.actnorm = ActNorm(channels)
        self.inv1x1 = Invertible1x1(channels, rng)
        self.coupling = None if rows is None else AffineCoupling(
            channels, config.topology, config.ops, rng,
            None if held is None else tuple(held[i] for i in rows))

    def parameters(self):
        out = self.actnorm.parameters() + self.inv1x1.parameters()
        if self.coupling is not None:
            out += self.coupling.parameters()
        return out


@dataclass(frozen=True)
class FlowConfig:
    """Macro-architecture: block/flow counts and the searched cell layout."""

    in_shape: tuple[int, int, int]  # (C, H, W)
    num_blocks: int = 2
    flows_per_block: int = 4
    squeeze: bool = True
    topology: CellTopology = field(default_factory=CellTopology)
    ops: tuple[str, ...] = OP_KINDS
    tie_cells_per_block: bool = True

    def __post_init__(self):
        c, h, w = self.in_shape
        if min(c, h, w) < 1 or self.num_blocks < 1 or self.flows_per_block < 1:
            raise ConfigError(f"invalid flow configuration {self}")
        # A block count past min(h, w).bit_length() fails the divisibility
        # test anyway; checking it first keeps 2**num_blocks small.
        nb = self.num_blocks
        if self.squeeze and (nb > min(h, w).bit_length() or h % 2**nb or w % 2**nb):
            raise ConfigError(
                f"squeeze needs H and W divisible by 2^{self.num_blocks}, got {h}x{w}"
            )
        if not self.ops:
            raise ConfigError("need at least one candidate operation")
        for op in self.ops:
            if op not in OPS:
                raise ConfigError(f"unknown candidate operation {op!r}")
        if len(set(self.ops)) != len(self.ops):  # a member names its ops in its checkpoint
            raise ConfigError(f"duplicate candidate operation in {list(self.ops)}")

    def to_dict(self) -> dict:
        """The JSON form of this config: a flat object, topology inlined."""
        return {
            "in_shape": list(self.in_shape),
            "num_blocks": self.num_blocks,
            "flows_per_block": self.flows_per_block,
            "squeeze": self.squeeze,
            "ops": list(self.ops),
            "num_nodes": self.topology.num_nodes,
            "edges": [list(e) for e in self.topology.edges],
            "tie_cells_per_block": self.tie_cells_per_block,
        }

    @classmethod
    def from_dict(cls, doc) -> "FlowConfig":
        """Inverse of to_dict: decode_config, with the topology's num_nodes
        and edges inlined in the object. Only in_shape is required."""
        if not isinstance(doc, dict):
            raise ConfigError(f"flow config must be an object, got {type(doc).__name__}")
        inlined = {k: doc[k] for k in ("num_nodes", "edges") if k in doc}
        rest = {k: v for k, v in doc.items() if k not in inlined}
        return decode_config(cls, rest, "flow",
                             topology=decode_config(CellTopology, inlined, "flow"))

    def block_shapes(self) -> list[tuple[int, int, int]]:
        """Working (C, H, W) inside each block, after its squeeze and the
        preceding blocks' splits."""
        c, h, w = self.in_shape
        shapes = []
        for b in range(self.num_blocks):
            if self.squeeze:
                c, h, w = 4 * c, h // 2, w // 2
            shapes.append((c, h, w))
            if b < self.num_blocks - 1:
                if c < 2:
                    raise ConfigError("cannot split a single-channel block")
                c = c - c // 2
        return shapes

    def latent_shapes(self) -> list[tuple[int, int, int]]:
        shapes = []
        for b, (c, h, w) in enumerate(self.block_shapes()):
            if b < self.num_blocks - 1:
                shapes.append((c // 2, h, w))
            else:
                shapes.append((c, h, w))
        return shapes

    def coupling_flags(self) -> list[bool]:
        return [c >= 2 for (c, _, _) in self.block_shapes()]

    def num_cell_groups(self) -> int:
        per_block = 1 if self.tie_cells_per_block else self.flows_per_block
        return sum(per_block for has in self.coupling_flags() if has)

    def logits_shape(self) -> tuple[int, int]:
        """(rows, ops) of the architecture logits: one row per cell edge."""
        return self.num_cell_groups() * self.topology.num_edges, len(self.ops)


def _cell_rows(config: FlowConfig) -> list[list[range | None]]:
    """Per block and step, the architecture-logits rows of the step's cell
    edges, or None for a step without coupling: one cell group per block
    when cells are tied, one per step otherwise."""
    ne, tied = config.topology.num_edges, config.tie_cells_per_block
    out, group = [], 0
    for coupled in config.coupling_flags():
        groups = [group if tied else group + k for k in range(config.flows_per_block)]
        out.append([range(g * ne, (g + 1) * ne) if coupled else None for g in groups])
        if coupled:
            group += 1 if tied else config.flows_per_block
    return out


def _held_ops(config: FlowConfig, arch: ArchSample | None) -> tuple[str, ...] | None:
    """The op name that `arch` picks on each logits row, which a model built
    for it holds, or None for the supernet (no `arch`)."""
    if arch is None:
        return None
    if arch.mode != "discrete" or arch.weights.shape != config.logits_shape():
        raise ConfigError(f"a member model needs a discrete architecture of shape "
                          f"{config.logits_shape()}, got a {arch.mode} one of shape "
                          f"{arch.weights.shape}")
    return tuple(config.ops[k] for k in arch.argmax_ops())


def num_parameters(config: FlowConfig, arch: ArchSample | None = None) -> int:
    """How many float64 parameters FlowModel(config, arch=arch) holds,
    counted without building it: per step, actnorm's 2c, the 1x1 mix's
    2c^2 + c and, when coupled, the cell's projection and op kernels (every
    op's on every edge, or with `arch` the held op's)."""
    held = _held_ops(config, arch)
    total = 0
    for (c, _, _), block_rows in zip(config.block_shapes(), _cell_rows(config)):
        c_cond, c_tr = (c + 1) // 2, c - (c + 1) // 2
        for rows in block_rows:
            total += 2 * c + 2 * c * c + c
            if rows is not None:
                edge_ops = [config.ops if held is None else (held[i],) for i in rows]
                total += sum(math.prod(shape) for ops in edge_ops for op in ops
                             for shape in OPS[op].shapes(c_cond))
                total += 2 * c_tr * c_cond + 2 * c_tr
    return total


def decode_config(cls, doc, where: str, **given):
    """Build the config dataclass `cls` from the JSON object `doc`.

    Each key names a field, and the field's annotation gives the JSON type
    of its value (see decode_value). An absent key takes the dataclass
    default. The fields in `given` come from the caller, so `doc` may not
    set them. Unknown keys, missing required keys and wrongly typed values
    raise ConfigError; `where` names the section in its message."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} config must be an object, got {type(doc).__name__}")
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    unknown = sorted(set(doc) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"unknown {where} config key(s) {unknown}")
    hints = typing.get_type_hints(cls)
    kw = {}
    for f in fields:
        if f.name in doc:
            kw[f.name] = decode_value(doc[f.name], hints[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"config is missing {where}.{f.name}")
    return cls(**kw, **given)


def decode_value(v, hint, where: str):
    """Check a JSON value against a field annotation and convert it: an
    object to a nested config dataclass, a list to a tuple (of fixed length,
    or of any length for tuple[X, ...]), null or X to X | None, and any JSON
    number to a float. Other types must match exactly, so that JSON true is
    not the integer 1 and 2.0 is not 2."""
    if dataclasses.is_dataclass(hint):
        return decode_config(hint, v, where)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        if v is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return decode_value(v, hint, where)
    if typing.get_origin(hint) is tuple:
        fixed = args[-1] is not Ellipsis
        if not isinstance(v, (list, tuple)) or fixed and len(v) != len(args):
            size = f" of {len(args)}" if fixed else ""
            raise ConfigError(f"{where} must be a list{size}, got {v!r}")
        hints = args if fixed else args[:1] * len(v)
        return tuple(decode_value(x, h, f"{where}[{i}]") for i, (x, h) in enumerate(zip(v, hints)))
    if hint is float and type(v) is int:
        try:
            return float(v)
        except OverflowError as exc:
            raise ConfigError(f"{where} is out of the float range, got {v!r}") from exc
    if type(v) is not hint:  # exact, so that JSON true is not the integer 1
        raise ConfigError(f"{where} must be of type {hint.__name__}, got {v!r}")
    return v


class FlowModel:
    """Multi-scale invertible model: per block, squeeze then K flow steps,
    then split half the channels off to the latent (except the last block).

    Without `arch` the model is the supernet: every cell edge holds every
    candidate op, and it runs any architecture, relaxed or discrete. Built
    for a discrete `arch`, it is that architecture's member: each edge holds
    only the op `arch` picks there (named in `held`) and it runs `arch` alone,
    also when its `forward`, `log_prob`, `inverse` and `initialize_actnorm`
    are given no architecture. Either way each step draws its initialization
    from its own stream of `seed`, every op's kernels included, so a member
    starts from the supernet's values of the parameters it holds."""

    def __init__(self, config: FlowConfig, seed: int = 0, arch: ArchSample | None = None):
        self._build(config, arch, seed)

    @classmethod
    def _layout(cls, config: FlowConfig, arch: ArchSample | None) -> "FlowModel":
        """The parameters FlowModel(config, arch=arch) holds, all zero, with
        identity permutations and no random draw: the frame a checkpoint
        load fills."""
        model = cls.__new__(cls)
        model._build(config, arch, None)
        return model

    def _build(self, config: FlowConfig, arch: ArchSample | None, seed: int | None) -> None:
        self.config, self.arch, self.held = config, arch, _held_ops(config, arch)
        self.blocks: list[list[FlowStep]] = []
        for b, ((c, _, _), block_rows) in enumerate(zip(config.block_shapes(), _cell_rows(config))):
            rngs = [None if seed is None else rng_for(seed, "flow_init", b, k)
                    for k in range(len(block_rows))]
            self.blocks.append([FlowStep(c, config, rows, rng, self.held)
                                for rows, rng in zip(block_rows, rngs)])

    # -- parameter registry -------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for b, steps in enumerate(self.blocks):
            for k, step in enumerate(steps):
                out += [(f"block{b}/step{k}/{n}", p) for n, p in step.parameters()]
        return out

    def zero_grad(self) -> None:
        ad.zero_grad([p for _, p in self.parameters()])

    # -- arch plumbing --------------------------------------------------------

    def _edge_plan(self, arch: ArchSample | None, weights_override):
        """The edge plan, one entry per logits row: the op name that a member
        holds or a discrete `arch` picks, or else relaxed weight rows. A
        relaxed override of shape (M, rows, K) holds M architecture samples;
        it comes back as (rows, M, K), so each edge's row weights the M row
        groups of the batch. A 2-D (rows, K) override is the case M = 1. A
        member model runs only its own architecture, and runs it when `arch`
        is None."""
        if self.arch is not None:
            other = arch is not None and arch is not self.arch and (
                arch.mode != "discrete"
                or not np.array_equal(arch.argmax_ops(), self.arch.argmax_ops()))
            if weights_override is not None or other:
                raise ConfigError("this model holds only the ops of the architecture it was "
                                  "built for, and runs only that architecture")
            return self.held
        discrete = weights_override is None and arch is not None and arch.mode == "discrete"
        if weights_override is not None:
            source = weights_override
        elif arch is not None:
            source = arch.weights
        else:
            # Uniform mixture; only meaningful before the cells differentiate.
            source = np.full(self.config.logits_shape(), 1.0 / len(self.config.ops))
        expected = self.config.logits_shape()
        stacked = not discrete and source.ndim == 3
        if source.shape[-2:] != expected or source.ndim != (3 if stacked else 2):
            raise ShapeError(f"architecture weights {source.shape} do not match {expected}")
        if discrete:
            return _held_ops(self.config, arch)
        return source.transpose(1, 0, 2) if stacked else source

    # -- core transforms ---------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        c, h, w = self.config.in_shape
        if x.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ShapeError(f"expected input (N, {c}, {h}, {w}), got {x.shape}")

    def _walk(self, plan):
        """The model's layout in forward order, as (kind, block, step index,
        step, edge plan) tuples: per block a "squeeze" (when configured), its
        "step"s, and a "split" after every block but the last. Each coupled
        step gets the entries of `plan` on its cell's rows."""
        for b, steps in enumerate(self.blocks):
            if self.config.squeeze:
                yield "squeeze", b, None, None, None
            for k, step in enumerate(steps):
                edges = None if step.rows is None else [plan[i] for i in step.rows]
                yield "step", b, k, step, edges
            if b < len(self.blocks) - 1:
                yield "split", b, None, None, None

    def forward(self, x, arch: ArchSample | None = None,
                weights_override=None) -> tuple[list[Tensor], Tensor]:
        """Map data to the latent stack; returns (z list, per-sample log-det)."""
        data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        self._check_input(data)
        plan = self._edge_plan(arch, weights_override)
        h = x if isinstance(x, Tensor) else Tensor(data)
        return self._forward(h, plan)

    def _forward(self, h: Tensor, plan, initialize: bool = False) -> tuple[list[Tensor], Tensor]:
        """forward's walk; with `initialize`, each actnorm is first fitted to
        the activation that reaches it."""
        logdet = Tensor(np.zeros(h.shape[0]))
        zs: list[Tensor] = []
        for kind, b, k, step, edges in self._walk(plan):
            if kind == "squeeze":
                h = _squeeze(h)
                continue
            if kind == "split":
                c_half = h.shape[1] // 2
                zs.append(h[:, :c_half])
                h = h[:, c_half:]
                continue
            try:
                if initialize:
                    step.actnorm.initialize(h.data)
                h, ld = step.actnorm.forward(h)
                logdet = logdet + ld
                h, ld = step.inv1x1.forward(h)
                logdet = logdet + ld
                if step.coupling is not None:
                    h, ld = step.coupling.forward(h, edges)
                    logdet = logdet + ld
            except NumericError as exc:
                raise NumericError(f"block {b} step {k}: {exc}") from exc
            if not np.all(np.isfinite(h.data)):
                raise NumericError(f"non-finite activations after block {b} step {k}")
        zs.append(h)
        return zs, logdet

    def inverse(self, zs: list[np.ndarray], arch: ArchSample | None = None) -> np.ndarray:
        """Exact inverse of forward: rebuild x from the latent stack."""
        shapes = self.config.latent_shapes()
        if len(zs) != len(shapes):
            raise ShapeError(f"expected {len(shapes)} latent tensors, got {len(zs)}")
        for z, s in zip(zs, shapes):
            if tuple(z.shape[1:]) != s:
                raise ShapeError(f"latent shape {z.shape[1:]} does not match {s}")
        plan = self._edge_plan(arch, None)
        h = np.asarray(zs[-1], dtype=np.float64)
        for kind, b, k, step, edges in reversed(list(self._walk(plan))):
            if kind == "squeeze":
                h = _unsqueeze_np(h)
                continue
            if kind == "split":
                h = np.concatenate([np.asarray(zs[b], dtype=np.float64), h], axis=1)
                continue
            if step.coupling is not None:
                h = step.coupling.inverse(h, edges)
            h = step.inv1x1.inverse(h)
            h = step.actnorm.inverse(h)
            if not np.all(np.isfinite(h)):
                raise NumericError(f"non-finite activations inverting block {b} step {k}")
        return h

    def log_prob(self, x, arch: ArchSample | None = None, weights_override=None) -> Tensor:
        """Per-sample log-density under the standard-normal latent prior.

        With (M, rows, K) relaxed weights, `x` holds M equal row groups and
        group j is scored under architecture sample j."""
        zs, logdet = self.forward(x, arch, weights_override)
        total = logdet
        for z in zs:
            d = int(np.prod(z.shape[1:]))
            total = total + ((z * z).sum(axis=(1, 2, 3)) * -0.5 - 0.5 * d * LOG_2PI)
        return total

    # -- data-dependent initialization ------------------------------------------

    def initialize_actnorm(self, batch: np.ndarray, arch: ArchSample | None = None) -> None:
        """Initialize every actnorm from this batch, layer by layer: one
        forward pass in which each actnorm standardizes what reaches it."""
        batch = np.asarray(batch, dtype=np.float64)
        self._check_input(batch)
        if batch.shape[0] < 2:
            raise ConfigError("actnorm initialization needs a batch of at least 2 samples")
        plan = self._edge_plan(arch, None)
        with ad.no_grad():
            self._forward(Tensor(batch), plan, initialize=True)


def backward(model: FlowModel, loss: Tensor, upstream=None) -> dict[str, np.ndarray]:
    """Accumulate gradients of `loss` (seeded by `upstream`) into the model
    and return them by parameter name."""
    model.zero_grad()
    loss.backward(upstream)
    grads = {}
    for name, p in model.parameters():
        grads[name] = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
    return grads


# -- squeeze / unsqueeze ----------------------------------------------------


def _squeeze(x):
    """Fold each 2x2 spatial patch into channels; x is a Tensor or an array."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"squeeze needs even spatial dims, got {h}x{w}")
    return (
        x.reshape(n, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, 4 * c, h // 2, w // 2)
    )


def _unsqueeze_np(y: np.ndarray) -> np.ndarray:
    n, c4, h, w = y.shape
    c = c4 // 4
    return (
        y.reshape(n, c, 2, 2, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c, 2 * h, 2 * w)
    )


# -- checkpoint format -------------------------------------------------------
#
# magic "NADSFLW2", then a little-endian u32 header length, then the UTF-8
# JSON header {"arch": null or [op name, ...], "flow": FlowConfig.to_dict(),
# "steps": [[actnorm_initialized, perm, sign], ...]} (arch is null for a
# supernet and names a member's op on each logits row; steps holds one entry
# per flow step in declaration order, perm being the 1x1 permutation and sign
# its +1/-1 diagonal signs), written with sorted keys, followed by the raw
# <f8 parameter arrays in declaration order.


def save_checkpoint(model: FlowModel, path) -> None:
    steps = [[step.actnorm.initialized, step.inv1x1.perm.tolist(),
              step.inv1x1.sign_diag.astype(int).tolist()]
             for block in model.blocks for step in block]
    header = json.dumps({"arch": model.held,
                         "flow": model.config.to_dict(), "steps": steps},
                        sort_keys=True, separators=(",", ":")).encode()
    parts = [CHECKPOINT_MAGIC, len(header).to_bytes(4, "little"), header]
    for _, p in model.parameters():
        parts.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path, blob: bytes | None = None) -> FlowModel:
    """Rebuild the model saved at `path`. A caller that has read the file
    already, say to check its hash, passes its bytes as `blob`, and those
    bytes are decoded. The layout comes from the header and the parameters
    from the payload; nothing is drawn at random."""
    if blob is None:
        with open(path, "rb") as fh:
            blob = fh.read()
    n = len(CHECKPOINT_MAGIC)
    if blob[:n] != CHECKPOINT_MAGIC:
        raise UsageError(f"{path}: not a flow checkpoint (bad magic; expected "
                         f"the {CHECKPOINT_MAGIC.decode()} format)")
    end = n + 4 + int.from_bytes(blob[n : n + 4], "little")
    try:  # ConfigError, UnicodeDecodeError and JSONDecodeError are ValueErrors
        header = json.loads(blob[n + 4 : end].decode("utf-8"))
        if not isinstance(header, dict) or set(header) != {"arch", "flow", "steps"}:
            raise ConfigError("the header must be an object with the keys arch, flow and steps")
        cfg = FlowConfig.from_dict(header["flow"])
        steps = decode_value(header["steps"],
                             tuple[tuple[bool, tuple[int, ...], tuple[int, ...]], ...], "steps")
        if len(steps) != cfg.num_blocks * cfg.flows_per_block:
            raise ConfigError(f"{len(steps)} flow steps, expected "
                              f"{cfg.num_blocks * cfg.flows_per_block}")
        channels = [c for c, _, _ in cfg.block_shapes() for _ in range(cfg.flows_per_block)]
        arch = _arch_from_names(cfg, decode_value(header["arch"], tuple[str, ...] | None, "arch"))
    except (ValueError, RecursionError) as exc:  # RecursionError: deeply nested JSON
        raise UsageError(f"{path}: bad checkpoint header: {exc}") from exc
    # Checked before the model is built, so that its size is bounded by the
    # file's own length.
    for (_, perm, sign), c in zip(steps, channels):
        if len(perm) != c or sorted(perm) != list(range(c)):
            raise UsageError(f"{path}: 1x1 permutation is not a permutation of {c} channels")
        if len(sign) != c or any(s not in (1, -1) for s in sign):
            raise UsageError(f"{path}: 1x1 sign entries must be {c} times +1 or -1")
    expected = 8 * num_parameters(cfg, arch)
    if len(blob) - end != expected:
        raise UsageError(f"{path}: expected {expected} parameter bytes, found {len(blob) - end}")
    model = FlowModel._layout(cfg, arch)
    for step, (initialized, perm, sign) in zip(
            (step for block in model.blocks for step in block), steps):
        step.actnorm.initialized = initialized
        step.inv1x1.perm = np.array(perm, dtype=np.int64)
        step.inv1x1.sign_diag = np.array(sign, dtype=np.float64)
    ad.bind_flat([p for _, p in model.parameters()],
                 np.frombuffer(blob, dtype="<f8", offset=end).astype(np.float64))
    return model


def _arch_from_names(config: FlowConfig, names: tuple[str, ...] | None) -> ArchSample | None:
    """The discrete architecture that picks op `names[i]` on logits row i."""
    if names is None:
        return None
    rows, k = config.logits_shape()
    if len(names) != rows:
        raise ConfigError(f"arch names {len(names)} ops, expected one per logits row ({rows})")
    unknown = sorted(set(names) - set(config.ops))
    if unknown:
        raise ConfigError(f"arch ops {unknown} are not in the flow's op menu {list(config.ops)}")
    w = np.zeros((rows, k))
    w[np.arange(rows), [config.ops.index(op) for op in names]] = 1.0
    return ArchSample("discrete", w)
