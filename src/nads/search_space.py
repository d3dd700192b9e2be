"""Searchable coupling cell: candidate operations, DAG topology, and the
categorical architecture distribution with Gumbel-Softmax sampling.

The cell receives the conditioning half of the coupling layer's channels
and emits per-element scale logits and shifts for the other half. Each DAG
edge mixes (relaxed mode) or selects (discrete mode) one of the candidate
operations; every node sums its incoming edges. Operation parameters live
on the cell and are shared by every sampled architecture.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError, ShapeError, UsageError
OP_KINDS = (
    "avg_pool_3x3",
    "max_pool_3x3",
    "skip_connect",
    "sep_conv_3x3",
    "sep_conv_5x5",
    "dil_conv_3x3",
    "dil_conv_5x5",
    "identity",
    "zero",
)

LOG_PROB_FLOOR = -30.0  # clamp on log-probabilities before adding Gumbel noise

KERNEL_INIT_STD = 0.05

DEFAULT_EDGES = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


@dataclass(frozen=True)
class CellTopology:
    """Forward DAG over cell nodes; node 0 is the input, the last node the output."""

    num_nodes: int = 4
    edges: tuple[tuple[int, int], ...] = DEFAULT_EDGES

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ConfigError("cell needs at least an input and an output node")
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < j < self.num_nodes):
                raise ConfigError(f"edge {i}->{j} is not topologically ordered")
            if (i, j) in seen:
                raise ConfigError(f"duplicate edge {i}->{j}")
            seen.add((i, j))
        targets = {j for _, j in seen}
        # Stops at the first node with no incoming edge: a huge num_nodes is cheap.
        for j in range(1, self.num_nodes):
            if j not in targets:
                raise ConfigError(f"node {j} has no incoming edge")

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass
class ArchDistribution:
    """Per-edge categorical logits over candidate operations.

    Rows are grouped by cell: row g * num_edges + e holds the logits of
    edge e in cell group g. softmax of each row is the probability vector
    over the operation list.
    """

    logits: np.ndarray
    tau: float
    ops: tuple[str, ...] = OP_KINDS
    topology: CellTopology = field(default_factory=CellTopology)
    num_cell_groups: int = 1

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        expected = (self.num_cell_groups * self.topology.num_edges, len(self.ops))
        if self.logits.shape != expected:
            raise ShapeError(f"logits shape {self.logits.shape}, expected {expected}")
        if not self.tau > 0:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        for op in self.ops:
            if op not in OP_KINDS:
                raise ConfigError(f"unknown candidate operation {op!r}")

    @property
    def num_edges(self) -> int:
        return self.logits.shape[0]

    def probs(self) -> np.ndarray:
        z = self.logits - self.logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    @staticmethod
    def uniform(ops=OP_KINDS, topology: CellTopology | None = None,
                num_cell_groups: int = 1, tau: float = 1.5) -> "ArchDistribution":
        topology = topology or CellTopology()
        logits = np.zeros((num_cell_groups * topology.num_edges, len(ops)))
        return ArchDistribution(logits, tau, tuple(ops), topology, num_cell_groups)


@dataclass(frozen=True)
class ArchSample:
    """One architecture drawn from the distribution.

    weights rows are one-hot (discrete) or simplex vectors (relaxed), in the
    same row layout as the distribution's logits.
    """

    mode: str  # "relaxed" | "discrete"
    weights: np.ndarray

    def __post_init__(self):
        if self.mode not in ("relaxed", "discrete"):
            raise ConfigError(f"unknown sample mode {self.mode!r}")
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))

    def argmax_ops(self) -> np.ndarray:
        return np.argmax(self.weights, axis=1)


def gumbel_noise(shape: tuple[int, ...], seed: int) -> np.ndarray:
    u = np.random.default_rng(seed).random(shape)
    return -np.log(-np.log(u))


def relaxed_weights(logits: Tensor, noise: np.ndarray, tau: float) -> Tensor:
    """Gumbel-Softmax rows: softmax((clamped log-softmax(logits) + noise) / tau).

    Differentiable w.r.t. `logits` at fixed noise; log-probabilities are
    clamped at LOG_PROB_FLOOR so near-zero probabilities keep finite values.
    `noise` may carry leading axes, e.g. (M, rows, K) for M samples at once.
    """
    if not tau > 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    log_phi = ad.log_softmax(logits, axis=1).clamp_min(LOG_PROB_FLOOR)
    return ad.softmax((log_phi + Tensor(noise)) * (1.0 / tau), axis=-1)


def sample_relaxed(dist: ArchDistribution, seed: int) -> ArchSample:
    noise = gumbel_noise(dist.logits.shape, seed)
    with ad.no_grad():
        w = relaxed_weights(Tensor(dist.logits), noise, dist.tau)
    return ArchSample("relaxed", w.data)


def sample_discrete(dist: ArchDistribution, seed: int) -> ArchSample:
    noise = gumbel_noise(dist.logits.shape, seed)
    choice = np.argmax(dist.logits + noise, axis=1)
    w = np.zeros_like(dist.logits)
    w[np.arange(len(choice)), choice] = 1.0
    return ArchSample("discrete", w)


def arch_log_prob(dist: ArchDistribution, sample: ArchSample) -> float:
    """Sum over edges of the log-probability of the chosen operation."""
    if sample.mode != "discrete":
        raise UsageError("arch_log_prob requires a discrete sample")
    if sample.weights.shape != dist.logits.shape:
        raise ShapeError(
            f"sample weights {sample.weights.shape} do not match logits {dist.logits.shape}"
        )
    z = dist.logits - dist.logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    chosen = sample.argmax_ops()
    return float(log_probs[np.arange(len(chosen)), chosen].sum())


class Cell:
    """One coupling cell: per-edge candidate-op parameters plus the output projection.

    `in_channels` is the conditioning half's channel count; the projection
    emits 2 * out_half channels that split into scale logits and shifts.
    """

    def __init__(self, in_channels: int, out_half: int, topology: CellTopology,
                 ops: tuple[str, ...], rng: np.random.Generator):
        self.in_channels = in_channels
        self.out_half = out_half
        self.topology = topology
        self.ops = tuple(ops)
        c = in_channels
        self.edge_params: list[dict[str, list[Tensor]]] = []
        for _ in topology.edges:
            per_op: dict[str, list[Tensor]] = {}
            for op in self.ops:
                per_op[op] = [
                    Tensor(rng.normal(0.0, KERNEL_INIT_STD, size=shape), requires_grad=True)
                    for shape in op_param_shapes(op, c)
                ]
            self.edge_params.append(per_op)
        # Projection starts at zero so a fresh coupling layer is benign.
        self.proj_weight = Tensor(np.zeros((2 * out_half, c)), requires_grad=True)
        self.proj_bias = Tensor(np.zeros(2 * out_half), requires_grad=True)

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for e, per_op in enumerate(self.edge_params):
            i, j = self.topology.edges[e]
            for op in self.ops:
                for k, p in enumerate(per_op[op]):
                    out.append((f"edge{i}-{j}/{op}/{k}", p))
        out.append(("proj/weight", self.proj_weight))
        out.append(("proj/bias", self.proj_bias))
        return out

    def _apply_op(self, op: str, params: list[Tensor], x: Tensor) -> Tensor | None:
        if op == "zero":
            return None
        if op in ("identity", "skip_connect"):
            return x
        if op == "avg_pool_3x3":
            return ad.avg_pool3x3(x)
        if op == "max_pool_3x3":
            return ad.max_pool3x3(x)
        if op == "sep_conv_3x3" or op == "sep_conv_5x5":
            depthwise, pointwise = params
            h = ad.conv2d(x, depthwise, dilation=1, groups=self.in_channels)
            return ad.conv2d(h, pointwise)
        if op == "dil_conv_3x3" or op == "dil_conv_5x5":
            return ad.conv2d(x, params[0], dilation=2)
        raise ConfigError(f"unknown candidate operation {op!r}")

    def forward(self, h: Tensor, edge_weights, mode: str) -> tuple[Tensor, Tensor]:
        """Evaluate the DAG. `edge_weights` is indexable per edge: either
        one-hot numpy rows (discrete) or relaxed weights, each of length
        len(ops) or, for M architecture samples at once, of shape
        (M, len(ops)); sample j then weights the j-th of M equal row groups
        of `h`."""
        if h.shape[1] != self.in_channels:
            raise ShapeError(
                f"cell expects {self.in_channels} conditioning channels, got {h.shape[1]}"
            )
        # Nodes are evaluated in index order: every edge (i, j) has i < j, so
        # all sources are complete before their targets accumulate.
        node_vals: list[Tensor | None] = [h] + [None] * (self.topology.num_nodes - 1)
        for j in range(1, self.topology.num_nodes):
            for e, (src_i, tgt_j) in enumerate(self.topology.edges):
                if tgt_j != j:
                    continue
                if node_vals[src_i] is None:
                    continue  # source is exactly zero, so every op output is too
                contrib = self._edge_output(e, node_vals[src_i], edge_weights[e], mode)
                if contrib is None:
                    continue
                if not np.all(np.isfinite(contrib.data)):
                    raise NumericError(f"non-finite output on cell edge {src_i}->{tgt_j}")
                node_vals[j] = contrib if node_vals[j] is None else node_vals[j] + contrib
        out_node = node_vals[-1]
        if out_node is None:
            out_node = Tensor(np.zeros_like(h.data))
        out = ad.channel_mix(out_node, self.proj_weight) + self.proj_bias.reshape(1, -1, 1, 1)
        s = out[:, : self.out_half]
        t = out[:, self.out_half :]
        return s, t

    def _edge_output(self, e: int, src: Tensor, weights, mode: str) -> Tensor | None:
        per_op = self.edge_params[e]
        if mode == "discrete":
            w = np.asarray(weights if not isinstance(weights, Tensor) else weights.data)
            op = self.ops[int(np.argmax(w))]
            return self._apply_op(op, per_op[op], src)
        w = Tensor._lift(weights)
        m = w.shape[0] if w.ndim == 2 else 1
        if src.shape[0] % m:
            raise ShapeError(f"{src.shape[0]} rows do not split into {m} weight groups")
        groups = (m, src.shape[0] // m) + src.shape[1:]
        cols = w.reshape(m, 1, 1, 1, 1, -1)  # one weight per op and row group
        acc: Tensor | None = None
        for k, op in enumerate(self.ops):
            out = self._apply_op(op, per_op[op], src)
            if out is None:
                continue  # the zero op contributes nothing in any mixture
            term = out.reshape(groups) * cols[..., k]
            acc = term if acc is None else acc + term
        return None if acc is None else acc.reshape(src.shape)


def op_param_shapes(op: str, channels: int) -> list[tuple[int, ...]]:
    if op == "sep_conv_3x3":
        return [(channels, 1, 3, 3), (channels, channels, 1, 1)]
    if op == "sep_conv_5x5":
        return [(channels, 1, 5, 5), (channels, channels, 1, 1)]
    if op == "dil_conv_3x3":
        return [(channels, channels, 3, 3)]
    if op == "dil_conv_5x5":
        return [(channels, channels, 5, 5)]
    return []


def serialize_architecture(obj, dist: ArchDistribution | None = None) -> str:
    """Text form: one `edge <i>-><j>: ...` line per edge.

    A discrete ArchSample lists chosen op names; an ArchDistribution lists
    probability rows. Cell groups are separated by `# cell <g>` headers when
    there is more than one group.
    """
    if isinstance(obj, ArchDistribution):
        dist = obj
        rows = [" ".join(f"{p:.6f}" for p in row) for row in obj.probs()]
        topology, groups = obj.topology, obj.num_cell_groups
    elif isinstance(obj, ArchSample):
        if dist is None:
            raise UsageError("serializing a sample requires its distribution for op names")
        if obj.mode != "discrete":
            rows = [" ".join(f"{p:.6f}" for p in row) for row in obj.weights]
        else:
            rows = [dist.ops[k] for k in obj.argmax_ops()]
        topology, groups = dist.topology, dist.num_cell_groups
    else:
        raise UsageError(f"cannot serialize {type(obj).__name__}")
    buf = io.StringIO()
    ne = topology.num_edges
    for g in range(groups):
        if groups > 1:
            buf.write(f"# cell {g}\n")
        for e, (i, j) in enumerate(topology.edges):
            buf.write(f"edge {i}->{j}: {rows[g * ne + e]}\n")
    return buf.getvalue()
