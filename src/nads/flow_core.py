"""Invertible flow engine: per-channel affine normalization, PLU-factored
1x1 channel mixing, and searchable affine coupling, composed into a
multi-scale model with exact log-determinants and exact inverses.

Numerics are float64 throughout. The forward/log-density path runs on the
autodiff tape (so one backward call yields analytic gradients for every
parameter); the inverse path is plain numpy.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NotInitializedError, NumericError, ShapeError, UsageError
from .search_space import (
    OP_KINDS,
    ArchSample,
    Cell,
    CellTopology,
)
from .seeding import rng_for

log = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))
MIN_COUPLING_SCALE = 1e-12
CHECKPOINT_MAGIC = b"NADSFLW1"


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


class Invertible1x1:
    """Channel mixing by W = P L (U + diag(sign * exp(s))).

    P is a fixed permutation and sign is fixed, so W stays invertible for any
    parameter values and log|det W| is just sum(s) (times H*W spatially).
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        self.channels = channels
        w0 = np.linalg.qr(rng.normal(size=(channels, channels)))[0]
        p, lo, up = scipy.linalg.lu(w0)
        self.perm = np.argmax(p, axis=1).astype(np.int64)  # row i of P picks source perm[i]
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
        rhs = y.transpose(1, 0, 2, 3).reshape(c, -1)
        # P^T y : entry perm[i] of the solve input is row i of y
        pt = np.empty_like(rhs)
        pt[self.perm] = rhs
        mid = scipy.linalg.solve_triangular(lo.data, pt, lower=True, unit_diagonal=True)
        x = scipy.linalg.solve_triangular(up.data, mid, lower=False)
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
                 rng: np.random.Generator):
        if channels < 2:
            raise ConfigError("affine coupling needs at least 2 channels")
        self.channels = channels
        self.c_cond = (channels + 1) // 2
        self.c_tr = channels - self.c_cond
        self.cell = Cell(self.c_cond, self.c_tr, topology, ops, rng)

    def _scale_and_shift(self, x1: Tensor, rows, mode: str) -> tuple[Tensor, Tensor, Tensor]:
        s, t = self.cell.forward(x1, rows, mode)
        pre = s + 2.0
        return pre.sigmoid(), pre.log_sigmoid(), t

    def forward(self, x: Tensor, rows, mode: str) -> tuple[Tensor, Tensor]:
        x1 = x[:, : self.c_cond]
        x2 = x[:, self.c_cond :]
        scale, log_scale, t = self._scale_and_shift(x1, rows, mode)
        y2 = x2 * scale + t
        logdet = log_scale.sum(axis=(1, 2, 3))
        return ad.concat([x1, y2], axis=1), logdet

    def inverse(self, y: np.ndarray, rows, mode: str) -> np.ndarray:
        y1 = y[:, : self.c_cond]
        y2 = y[:, self.c_cond :]
        with ad.no_grad():
            scale, _, t = self._scale_and_shift(Tensor(y1), rows, mode)
        if scale.data.min() < MIN_COUPLING_SCALE:
            raise NumericError(
                f"coupling scale below {MIN_COUPLING_SCALE:g}; inverse is ill-conditioned"
            )
        x2 = (y2 - t.data) / scale.data
        return np.concatenate([y1, x2], axis=1)

    def parameters(self):
        return [(f"coupling/{n}", p) for n, p in self.cell.parameters()]


class FlowStep:
    def __init__(self, channels: int, topology, ops, rng: np.random.Generator,
                 with_coupling: bool):
        self.actnorm = ActNorm(channels)
        self.inv1x1 = Invertible1x1(channels, rng)
        self.coupling = (
            AffineCoupling(channels, topology, ops, rng) if with_coupling else None
        )

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
            if op not in OP_KINDS:
                raise ConfigError(f"unknown candidate operation {op!r}")

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
        """Inverse of to_dict. Only in_shape is required; an absent key takes
        the dataclass default. Unknown keys and wrongly typed values raise
        ConfigError."""
        if not isinstance(doc, dict):
            raise ConfigError(f"flow config must be an object, got {type(doc).__name__}")
        if "in_shape" not in doc:
            raise ConfigError("config is missing flow.in_shape")
        unknown = sorted(set(doc) - set(_FLOW_FIELDS))
        if unknown:
            raise ConfigError(f"unknown flow config key(s) {unknown}")
        kw = {key: _from_json(doc[key], spec, f"flow.{key}")
              for key, spec in _FLOW_FIELDS.items() if key in doc}
        topology = {k: kw.pop(k) for k in ("num_nodes", "edges") if k in kw}
        return cls(topology=CellTopology(**topology), **kw)

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


def _from_json(v, spec, where: str):
    """Check a JSON value against spec: a type, [spec] for a list of any
    length, or [spec, spec, ...] for a list of exactly that length. Lists
    come back as tuples."""
    if isinstance(spec, list):
        fixed = len(spec) > 1
        if not isinstance(v, (list, tuple)) or fixed and len(v) != len(spec):
            size = f" of {len(spec)}" if fixed else ""
            raise ConfigError(f"{where} must be a list{size}, got {v!r}")
        specs = spec if fixed else spec * len(v)
        return tuple(_from_json(x, sp, f"{where}[{i}]") for i, (x, sp) in enumerate(zip(v, specs)))
    if type(v) is not spec:  # exact, so that JSON true is not the integer 1
        raise ConfigError(f"{where} must be of type {spec.__name__}, got {v!r}")
    return v


# FlowConfig.to_dict's keys and the JSON shape from_dict expects of each.
_FLOW_FIELDS = {
    "in_shape": [int, int, int],
    "num_blocks": int,
    "flows_per_block": int,
    "squeeze": bool,
    "ops": [str],
    "num_nodes": int,
    "edges": [[int, int]],
    "tie_cells_per_block": bool,
}


class FlowModel:
    """Multi-scale invertible model: per block, squeeze then K flow steps,
    then split half the channels off to the latent (except the last block)."""

    def __init__(self, config: FlowConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.blocks: list[list[FlowStep]] = []
        flags = config.coupling_flags()
        for b, (c, _, _) in enumerate(config.block_shapes()):
            steps = []
            for k in range(config.flows_per_block):
                rng = rng_for(seed, "flow_init", b, k)
                steps.append(FlowStep(c, config.topology, config.ops, rng, flags[b]))
            self.blocks.append(steps)

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

    def _resolve_weights(self, arch: ArchSample | None, weights_override):
        """The per-edge weight rows and the cell mode. A relaxed override of
        shape (M, rows, K) holds M architecture samples; it comes back as
        (rows, M, K), so each edge's row weights the M row groups of the
        batch. A 2-D (rows, K) override is the case M = 1."""
        if weights_override is not None:
            mode = "relaxed"
            source = weights_override
        elif arch is not None:
            mode = arch.mode
            source = arch.weights
        else:
            # Uniform mixture; only meaningful before the cells differentiate.
            k = len(self.config.ops)
            rows = self.config.num_cell_groups() * self.config.topology.num_edges
            mode = "relaxed"
            source = np.full((rows, k), 1.0 / k)
        expected = (self.config.num_cell_groups() * self.config.topology.num_edges,
                    len(self.config.ops))
        stacked = mode == "relaxed" and source.ndim == 3
        if source.shape[-2:] != expected or source.ndim != (3 if stacked else 2):
            raise ShapeError(f"architecture weights {source.shape} do not match {expected}")
        return (source.transpose(1, 0, 2) if stacked else source), mode

    # -- core transforms ---------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        c, h, w = self.config.in_shape
        if x.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ShapeError(f"expected input (N, {c}, {h}, {w}), got {x.shape}")

    def _walk(self, weights):
        """The model's layout in forward order, as (kind, block, step index,
        step, arch weight rows) tuples: per block a "squeeze" (when
        configured), its "step"s, and a "split" after every block but the
        last. Each coupled step gets its cell group's rows: one group per
        block when cells are tied, one per step otherwise."""
        ne = self.config.topology.num_edges
        tied = self.config.tie_cells_per_block
        group = 0
        for b, steps in enumerate(self.blocks):
            if self.config.squeeze:
                yield "squeeze", b, None, None, None
            for k, step in enumerate(steps):
                rows = None
                if step.coupling is not None:
                    lo = (group if tied else group + k) * ne
                    rows = [weights[lo + e] for e in range(ne)]
                yield "step", b, k, step, rows
            if steps[0].coupling is not None:
                group += 1 if tied else len(steps)
            if b < len(self.blocks) - 1:
                yield "split", b, None, None, None

    def forward(self, x, arch: ArchSample | None = None,
                weights_override=None) -> tuple[list[Tensor], Tensor]:
        """Map data to the latent stack; returns (z list, per-sample log-det)."""
        data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        self._check_input(data)
        weights, mode = self._resolve_weights(arch, weights_override)
        h = x if isinstance(x, Tensor) else Tensor(data)
        return self._forward(h, weights, mode)

    def _forward(self, h: Tensor, weights, mode: str,
                 initialize: bool = False) -> tuple[list[Tensor], Tensor]:
        """forward's walk; with `initialize`, each actnorm is first fitted to
        the activation that reaches it."""
        logdet = Tensor(np.zeros(h.shape[0]))
        zs: list[Tensor] = []
        for kind, b, k, step, rows in self._walk(weights):
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
                    h, ld = step.coupling.forward(h, rows, mode)
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
        weights, mode = self._resolve_weights(arch, None)
        h = np.asarray(zs[-1], dtype=np.float64)
        for kind, b, k, step, rows in reversed(list(self._walk(weights))):
            if kind == "squeeze":
                h = _unsqueeze_np(h)
                continue
            if kind == "split":
                h = np.concatenate([np.asarray(zs[b], dtype=np.float64), h], axis=1)
                continue
            if step.coupling is not None:
                h = step.coupling.inverse(h, rows, mode)
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
        weights, mode = self._resolve_weights(arch, None)
        with ad.no_grad():
            self._forward(Tensor(batch), weights, mode, initialize=True)

    @property
    def actnorm_initialized(self) -> bool:
        return all(s.actnorm.initialized for steps in self.blocks for s in steps)


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
# magic "NADSFLW1", then a little-endian header:
#   u32 C, H, W, num_blocks, flows_per_block
#   u8 squeeze, u8 tie_cells_per_block, u16 reserved
#   u32 num_ops, then u8 op ids (indices into OP_KINDS)
#   u32 cell num_nodes, u32 num_edges, then u32 (i, j) per edge
#   per flow step (declaration order): u8 actnorm_initialized,
#     u32 perm[C_b], i8 sign[C_b]
# followed by the raw <f8 parameter arrays in declaration order.


def save_checkpoint(model: FlowModel, path) -> None:
    cfg = model.config
    c, h, w = cfg.in_shape
    parts = [CHECKPOINT_MAGIC]
    parts.append(struct.pack("<5I", c, h, w, cfg.num_blocks, cfg.flows_per_block))
    parts.append(struct.pack("<BBH", int(cfg.squeeze), int(cfg.tie_cells_per_block), 0))
    op_ids = [OP_KINDS.index(op) for op in cfg.ops]
    parts.append(struct.pack("<I", len(op_ids)) + bytes(op_ids))
    topo = cfg.topology
    parts.append(struct.pack("<2I", topo.num_nodes, topo.num_edges))
    for i, j in topo.edges:
        parts.append(struct.pack("<2I", i, j))
    for steps in model.blocks:
        for step in steps:
            parts.append(struct.pack("<B", int(step.actnorm.initialized)))
            parts.append(step.inv1x1.perm.astype("<u4").tobytes())
            parts.append(step.inv1x1.sign_diag.astype("<i1").tobytes())
    for _, p in model.parameters():
        parts.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise UsageError("truncated checkpoint")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> FlowModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise UsageError(f"{path}: not a flow checkpoint (bad magic)")
    c, h, w, num_blocks, flows = r.unpack("<5I")
    squeeze, tie, _ = r.unpack("<BBH")
    (num_ops,) = r.unpack("<I")
    op_ids = r.take(num_ops)
    if any(b >= len(OP_KINDS) for b in op_ids):
        raise UsageError(f"{path}: operation id out of range 0..{len(OP_KINDS) - 1}")
    ops = tuple(OP_KINDS[b] for b in op_ids)
    num_nodes, num_edges = r.unpack("<2I")
    edges = tuple(tuple(r.unpack("<2I")) for _ in range(num_edges))
    cfg = FlowConfig(
        in_shape=(c, h, w),
        num_blocks=num_blocks,
        flows_per_block=flows,
        squeeze=bool(squeeze),
        topology=CellTopology(num_nodes, edges),
        ops=ops,
        tie_cells_per_block=bool(tie),
    )
    model = FlowModel(cfg, seed=0)
    for steps, (cb, _, _) in zip(model.blocks, cfg.block_shapes()):
        for step in steps:
            (init_flag,) = r.unpack("<B")
            step.actnorm.initialized = bool(init_flag)
            perm = np.frombuffer(r.take(4 * cb), dtype="<u4").astype(np.int64)
            sign = np.frombuffer(r.take(cb), dtype="<i1").astype(np.float64)
            if not np.array_equal(np.sort(perm), np.arange(cb)):
                raise UsageError(f"{path}: 1x1 permutation is not a permutation of {cb} channels")
            if not np.all(np.abs(sign) == 1.0):
                raise UsageError(f"{path}: 1x1 sign entries must be +1 or -1")
            step.inv1x1.perm, step.inv1x1.sign_diag = perm, sign
    for name, p in model.parameters():
        raw = r.take(8 * p.data.size)
        p.data = np.frombuffer(raw, dtype="<f8").reshape(p.data.shape).copy()
    if r.pos != len(blob):
        raise UsageError(f"{path}: {len(blob) - r.pos} trailing bytes in checkpoint")
    return model
