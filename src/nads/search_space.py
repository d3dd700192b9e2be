"""Searchable coupling cell: candidate operations, DAG topology, and the
categorical architecture distribution with Gumbel-Softmax sampling.

The cell receives the conditioning half of the coupling layer's channels
and emits per-element scale logits and shifts for the other half. Each DAG
edge runs the one candidate operation its plan entry names, or mixes every
operation by the entry's relaxed weights, on maps of at most 4x4 its
convolutions folded into one kernel (`_folded_convolutions`); every node
sums its incoming edges.
A searched cell holds every operation's parameters, shared by every sampled
architecture; a retrained member's cell holds only the operation its
architecture picked on each edge. `OPS` is the one table of candidate
operations.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError, ShapeError, UsageError


class KernelForm(NamedTuple):
    """A linear convolution op written as one dense (c, c, 5, 5) kernel at
    its dilation: `kernel` builds it from the op's parameter arrays (a
    smaller kernel zero-padded to 5x5), and `grads` maps a gradient with
    respect to it back to one gradient per parameter."""

    dilation: int
    kernel: Callable[[list[np.ndarray]], np.ndarray]
    grads: Callable[[list[np.ndarray], np.ndarray], list[np.ndarray]]


class Op(NamedTuple):
    """A candidate operation: its parameter shapes for `c` channels, its
    forward on (params, x), and, for a linear convolution, its kernel form,
    through which a relaxed edge folds it with the edge's other convolutions.
    A forward that returns None is the zero map."""

    shapes: Callable[[int], list[tuple[int, ...]]]
    forward: Callable[[list[Tensor], Tensor], Tensor | None]
    kernel_form: KernelForm | None = None


def _no_params(c: int) -> list[tuple[int, ...]]:
    return []


def _centred(k: int) -> slice:
    """The taps of a k x k kernel zero-padded to 5x5."""
    return slice((5 - k) // 2, (5 + k) // 2)


def _padded(kernel: np.ndarray) -> np.ndarray:
    c_out, c_in, k, _ = kernel.shape
    out = np.zeros((c_out, c_in, 5, 5))
    out[:, :, _centred(k), _centred(k)] = kernel
    return out


def _sep_conv(k: int) -> Op:
    """A depthwise k x k convolution D, then a pointwise one P: together the
    dense kernel P[o, c] * D[c, a, b]."""
    s = _centred(k)

    def grads(p: list[np.ndarray], gk: np.ndarray) -> list[np.ndarray]:
        g = gk[:, :, s, s]
        return [(p[1] * g).sum(axis=0)[:, None], (g * p[0][:, 0]).sum(axis=(2, 3), keepdims=True)]

    return Op(lambda c: [(c, 1, k, k), (c, c, 1, 1)],
              lambda p, x: ad.conv2d(ad.conv2d(x, p[0], groups=x.shape[1]), p[1]),
              KernelForm(1, lambda p: _padded(p[1] * p[0][:, 0]), grads))


def _dil_conv(k: int) -> Op:
    """A dense k x k convolution at dilation 2."""
    s = _centred(k)
    return Op(lambda c: [(c, c, k, k)], lambda p, x: ad.conv2d(x, p[0], dilation=2),
              KernelForm(2, lambda p: _padded(p[0]), lambda p, gk: [gk[:, :, s, s]]))


# The candidate-op menu. Its order fixes the columns of the architecture
# logits and so every phi.json written for the default flow. Each forward
# looks `ad`'s functions up when it runs, so a wrapper bound over them later
# (as the benchmark's tracer does) sees every call.
OPS: dict[str, Op] = {
    "avg_pool_3x3": Op(_no_params, lambda p, x: ad.avg_pool3x3(x)),
    "max_pool_3x3": Op(_no_params, lambda p, x: ad.max_pool3x3(x)),
    "skip_connect": Op(_no_params, lambda p, x: x),
    "sep_conv_3x3": _sep_conv(3),
    "sep_conv_5x5": _sep_conv(5),
    "dil_conv_3x3": _dil_conv(3),
    "dil_conv_5x5": _dil_conv(5),
    "identity": Op(_no_params, lambda p, x: x),
    "zero": Op(_no_params, lambda p, x: None),
}
OP_KINDS = tuple(OPS)
# `skip_connect` and `identity` compute the same map, and both stay:
# acceptance criterion 1 runs an op menu that names `skip_connect`, and a
# merge would change the default menu, the logits' shape and every phi.json
# written for the default flow. The cost is a tilted prior: under uniform
# logits the identity map takes 2/9 of each edge's mass.

LOG_PROB_FLOOR = -30.0  # clamp on log-probabilities before adding Gumbel noise

KERNEL_INIT_STD = 0.05

# A relaxed edge folds its convolutions only on maps of at most this side.
# There every tap of a 5x5 kernel at dilation 1 or 2 that reaches the map
# lies within 2 of the centre, so the folded kernel has at most 5x5 taps.
# On larger maps a dilation-2 kernel reaches 4 from the centre, and the
# dense folded kernel of the separable ops costs more than running each op
# alone: folded, a relaxed cell's forward and backward at 6 channels on
# 32x32 maps took 1.2x as long on a 2-CPU Xeon with 1 BLAS thread.
FOLD_MAX_SIDE = 4

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
            if op not in OPS:
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
    Each edge holds the parameters of every op in `ops`, or, given `held`
    (one op name per edge), only those of its held op. The kernels are drawn
    from `rng` for every op in menu order, so a held op's kernels do not
    depend on `held`; without `rng` every parameter starts at zero.
    """

    def __init__(self, in_channels: int, out_half: int, topology: CellTopology,
                 ops: tuple[str, ...], rng: np.random.Generator | None = None,
                 held: tuple[str, ...] | None = None):
        self.in_channels = in_channels
        self.out_half = out_half
        self.topology = topology
        self.ops = tuple(ops)
        c = in_channels
        self.edge_params: list[dict[str, list[Tensor]]] = []
        for e in range(topology.num_edges):
            per_op: dict[str, list[Tensor]] = {}
            for op in self.ops:
                kernels = [np.zeros(shape) if rng is None else
                           rng.normal(0.0, KERNEL_INIT_STD, size=shape)
                           for shape in OPS[op].shapes(c)]
                if held is None or held[e] == op:
                    per_op[op] = [Tensor(k, requires_grad=True) for k in kernels]
            self.edge_params.append(per_op)
        # Projection starts at zero so a fresh coupling layer is benign.
        self.proj_weight = Tensor(np.zeros((2 * out_half, c)), requires_grad=True)
        self.proj_bias = Tensor(np.zeros(2 * out_half), requires_grad=True)

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for e, per_op in enumerate(self.edge_params):
            i, j = self.topology.edges[e]
            for op, params in per_op.items():
                for k, p in enumerate(params):
                    out.append((f"edge{i}-{j}/{op}/{k}", p))
        out.append(("proj/weight", self.proj_weight))
        out.append(("proj/bias", self.proj_bias))
        return out

    def forward(self, h: Tensor, edges) -> tuple[Tensor, Tensor]:
        """Evaluate the DAG. `edges` is the edge plan, indexable per edge:
        an op name, which the edge runs alone, or relaxed weights that mix
        every op, of length len(ops) or, for M architecture samples at once,
        of shape (M, len(ops)); sample j then weights the j-th of M equal
        row groups of `h`."""
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
                contrib = self._edge_output(e, node_vals[src_i], edges[e])
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

    def _edge_output(self, e: int, src: Tensor, edge) -> Tensor | None:
        per_op = self.edge_params[e]
        if isinstance(edge, str):
            return OPS[edge].forward(per_op[edge], src)
        w = Tensor._lift(edge)
        m = w.shape[0] if w.ndim == 2 else 1
        if src.shape[0] % m:
            raise ShapeError(f"{src.shape[0]} rows do not split into {m} weight groups")
        groups = (m, src.shape[0] // m) + src.shape[1:]
        cols = w.reshape(m, 1, 1, 1, 1, -1)  # one weight per op and row group
        folds = max(src.shape[2:]) <= FOLD_MAX_SIDE
        folded = [(k, OPS[op].kernel_form, per_op[op]) for k, op in enumerate(self.ops)
                  if folds and OPS[op].kernel_form is not None]
        acc = _folded_convolutions(src, w, folded).reshape(groups) if folded else None
        for k, op in enumerate(self.ops):
            if folds and OPS[op].kernel_form is not None:
                continue  # folded above
            out = OPS[op].forward(per_op[op], src)
            if out is None:
                continue  # the zero op contributes nothing in any mixture
            term = out.reshape(groups) * cols[..., k]
            acc = term if acc is None else acc + term
        return None if acc is None else acc.reshape(src.shape)


def _kept_taps(ry: int, rx: int, d: int):
    """Index of the taps of a 5x5 kernel at dilation d that lie within ry rows
    and rx columns of the centre, and index of their places on the
    (2 ry + 1) x (2 rx + 1) tap window, each for `a[index]`."""
    ky, kx = ry // d, rx // d
    kept = (Ellipsis, slice(2 - ky, 3 + ky), slice(2 - kx, 3 + kx))
    place = (Ellipsis, slice(ry - d * ky, ry + d * ky + 1, d),
             slice(rx - d * kx, rx + d * kx + 1, d))
    return kept, place


def _folded_convolutions(src: Tensor, w: Tensor,
                         ops: list[tuple[int, KernelForm, list[Tensor]]]) -> Tensor:
    """The weighted sum of a relaxed edge's convolution ops as one tape node.

    `ops` holds each op's column in the weights, its kernel form and its
    parameters. For row group m of `src`, the ops fold into
    K[m] = sum_k w[m, k] * kernel_k, every kernel cropped to the taps that
    reach the map and laid at its dilation on one tap window of at most
    5x5 offsets, so one batched correlation runs the whole sum. The VJP
    correlates the gradient with the flipped window kernel for `src` and
    takes the window kernel's gradient gK[m] from the rebuilt columns:
    w[m, k] gets <gK[m], kernel_k>, and op k's parameters get
    sum_m w[m, k] * gK[m], read back at op k's taps, through its form."""
    x = src.data
    n, c, h, wd = x.shape
    wk = w.data.reshape(-1, w.shape[-1])
    m = wk.shape[0]
    at = [k for k, _, _ in ops]
    ry, rx = min(2, h - 1), min(2, wd - 1)  # offsets past these reach no output
    taps = [_kept_taps(ry, rx, form.dilation) for _, form, _ in ops]
    laid = np.zeros((len(ops), c, c, 2 * ry + 1, 2 * rx + 1))  # each op's kernel on the window
    for j, ((_, form, params), (kept, place)) in enumerate(zip(ops, taps)):
        laid[j][place] = form.kernel([p.data for p in params])[kept]
    flat = laid.reshape(len(ops), -1)

    def mixed() -> np.ndarray:
        return (wk[:, at] @ flat).reshape((m, c) + laid.shape[2:])

    def vjp(g):
        # The mixed kernels are rebuilt rather than kept: M of them per edge
        # on the tape would raise the peak memory.
        cols = ad.tap_columns(x, 2 * ry + 1, 2 * rx + 1).reshape(m, n // m, -1, h * wd)
        g_mixed = (g.reshape(m, n // m, c, h * wd) @ cols.transpose(0, 1, 3, 2)).sum(axis=1)
        g_src = None
        if src.requires_grad:  # the flipped kernel lies on the same, symmetric, window
            g_src = ad.tap_correlate(g, mixed().transpose(0, 2, 1, 3, 4)[..., ::-1, ::-1])
        g_w = np.zeros_like(wk)
        g_w[:, at] = g_mixed.reshape(m, -1) @ flat.T
        g_laid = (wk[:, at].T @ g_mixed.reshape(m, -1)).reshape(laid.shape)
        g_params = []
        for j, ((_, form, params), (kept, place)) in enumerate(zip(ops, taps)):
            g_kernel = np.zeros((c, c, 5, 5))
            g_kernel[kept] = g_laid[j][place]
            g_params += form.grads([p.data for p in params], g_kernel)
        return (g_src, g_w.reshape(w.shape), *g_params)

    out = ad.tap_correlate(x, mixed())
    return ad._make(out, (src, w, *[p for _, _, params in ops for p in params]), vjp)


def serialize_architecture(dist: ArchDistribution) -> str:
    """Text form: one `edge <i>-><j>: <op probabilities>` line per edge, with
    cell groups separated by `# cell <g>` headers when there is more than one."""
    rows = [" ".join(f"{p:.6f}" for p in row) for row in dist.probs()]
    buf = io.StringIO()
    ne = dist.topology.num_edges
    for g in range(dist.num_cell_groups):
        if dist.num_cell_groups > 1:
            buf.write(f"# cell {g}\n")
        for e, (i, j) in enumerate(dist.topology.edges):
            buf.write(f"edge {i}->{j}: {rows[g * ne + e]}\n")
    return buf.getvalue()
