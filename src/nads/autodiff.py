"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operations that
produced it. Calling :meth:`Tensor.backward` on a scalar result walks the
tape in reverse topological order and accumulates vector-Jacobian products
into ``.grad`` of every tensor with ``requires_grad=True``. Gradients
accumulate across backward calls; call :func:`zero_grad` between steps.

All arithmetic supports numpy-style broadcasting. Convolution and pooling
primitives are stride-1 with "same" padding, which is all the flow layers
need.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, UsageError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (pure evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Array node on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- backward pass ---------------------------------------------------

    def backward(self, grad=None) -> None:
        """Accumulate gradients of `self` into every reachable leaf.

        `grad` seeds the pass (defaults to ones, i.e. d(self)/d(self)); it
        must broadcast to this tensor's shape.
        """
        if not self.requires_grad:
            raise UsageError(
                "backward() on a tensor with no recorded graph; run the "
                "forward pass with gradients enabled first"
            )
        if grad is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.broadcast_to(np.asarray(grad, dtype=np.float64), self.data.shape).copy()

        # Iterative topological order (graphs can be deep).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): seed}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        return _make(
            self.data + other.data,
            (self, other),
            lambda g: (_unbroadcast(g, self.data.shape), _unbroadcast(g, other.data.shape)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._lift(other)
        return _make(
            self.data - other.data,
            (self, other),
            lambda g: (_unbroadcast(g, self.data.shape), _unbroadcast(-g, other.data.shape)),
        )

    def __rsub__(self, other):
        return Tensor._lift(other) - self

    def __mul__(self, other):
        other = Tensor._lift(other)
        return _make(
            self.data * other.data,
            (self, other),
            lambda g: (
                _unbroadcast(g * other.data, self.data.shape),
                _unbroadcast(g * self.data, other.data.shape),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other)
        return _make(
            self.data / other.data,
            (self, other),
            lambda g: (
                _unbroadcast(g / other.data, self.data.shape),
                _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape),
            ),
        )

    def __rtruediv__(self, other):
        return Tensor._lift(other) / self

    def __neg__(self):
        return _make(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise UsageError("only scalar exponents are supported")
        e = float(exponent)
        return _make(
            self.data**e,
            (self,),
            lambda g: (g * e * self.data ** (e - 1.0),),
        )

    def __matmul__(self, other):
        other = Tensor._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError("matmul expects 2-D operands")
        return _make(
            self.data @ other.data,
            (self, other),
            lambda g: (g @ other.data.T, self.data.T @ g),
        )

    # -- elementwise functions ---------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return _make(out_data, (self,), lambda g: (g * out_data,))

    def log(self):
        return _make(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sigmoid(self):
        # exp(log_sigmoid(x)): no overflow at either tail
        out_data = np.exp(-np.logaddexp(0.0, -self.data))
        return _make(out_data, (self,), lambda g: (g * out_data * (1.0 - out_data),))

    def log_sigmoid(self):
        # log sigmoid(x) = -softplus(-x), stable at both tails
        out_data = -np.logaddexp(0.0, -self.data)
        sig = np.exp(out_data)
        return _make(out_data, (self,), lambda g: (g * (1.0 - sig),))

    def clamp_min(self, floor: float):
        mask = self.data > floor
        return _make(np.maximum(self.data, floor), (self,), lambda g: (g * mask,))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            axes = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, shape).copy(),)

        return _make(out_data, (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = 1
            for a in axes:
                n *= self.data.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return _make(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = tuple(np.argsort(axes))
        return _make(self.data.transpose(axes), (self,), lambda g: (g.transpose(inv),))

    def __getitem__(self, idx):
        # Basic indexing only: disjoint output positions, so the adjoint is
        # a plain scatter-add into the source slice.
        out_data = self.data[idx]
        shape = self.data.shape

        def vjp(g):
            full = np.zeros(shape)
            full[idx] = g
            return (full,)

        return _make(out_data, (self,), vjp)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def zero_grad(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def bind_flat(tensors: Sequence[Tensor], flat: np.ndarray | None = None) -> np.ndarray:
    """Make each tensor's data a view of one float64 vector, in order, and
    return the vector: `flat` if given, else a new copy of the tensors' data."""
    sizes = [t.data.size for t in tensors]
    if flat is None:
        flat = np.concatenate([t.data for t in tensors], axis=None, dtype=np.float64)
    if flat.shape != (sum(sizes),):
        raise ShapeError(f"a vector of shape {flat.shape} cannot hold {sum(sizes)} entries")
    pos = 0
    for t, n in zip(tensors, sizes):
        t.data = flat[pos : pos + n].reshape(t.data.shape)
        pos += n
    return flat


def flat_grad(tensors: Sequence[Tensor]) -> np.ndarray:
    """The tensors' gradients as one vector in the layout of `bind_flat`; a
    tensor that the last backward pass did not reach contributes zeros."""
    return np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad
                           for t in tensors], axis=None)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(slicer)])
        return tuple(outs)

    return _make(data, tuple(tensors), vjp)


def logsumexp(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp along one axis (max is treated as a constant)."""
    c = np.max(x.data, axis=axis, keepdims=True)
    shifted = x - Tensor(c)
    out = shifted.exp().sum(axis=axis, keepdims=True).log() + Tensor(c)
    if not keepdims:
        out = out.reshape(tuple(n for i, n in enumerate(x.shape) if i != axis % x.ndim))
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x - logsumexp(x, axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


# -- spatial primitives (stride 1, "same" padding) ---------------------------


def _check_nchw(x: Tensor, name: str) -> None:
    if x.data.ndim != 4:
        raise ShapeError(f"{name} expects an (N, C, H, W) tensor, got ndim={x.data.ndim}")


def _windows(x: np.ndarray, kh: int, kw: int, dilation: int = 1,
             fill: float = 0.0) -> np.ndarray:
    """Read-only (N, C, kh, kw, H, W) view of a new copy of `x` padded "same"
    with `fill`: entry [n, c, a, b, i, j] is tap (a, b) of the window at
    output (i, j)."""
    n, c, h, w = x.shape
    ph, pw = dilation * (kh // 2), dilation * (kw // 2)
    xp = np.full((n, c, h + 2 * ph, w + 2 * pw), fill)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, h, w), (sn, sc, sh * dilation, sw * dilation, sh, sw),
        writeable=False)


def _correlate(x: np.ndarray, weight: np.ndarray, dilation: int, groups: int) -> np.ndarray:
    """Grouped "same" correlation as one batched product: the input's windows
    are copied once into columns (N, G, C/G * kh * kw, H * W) and each
    group's (C_out/G, C/G * kh * kw) kernel multiplies them."""
    n, _, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    cols = _windows(x, kh, kw, dilation).reshape(n, groups, -1, h * w)
    return (weight.reshape(groups, c_out // groups, -1) @ cols).reshape(n, c_out, h, w)


def conv2d(x: Tensor, weight: Tensor, dilation: int = 1, groups: int = 1) -> Tensor:
    """Grouped 2-D convolution, stride 1, odd kernel, "same" padding.

    weight has shape (C_out, C_in // groups, kh, kw). Depthwise convolution
    is groups == C_in with C_out == C_in.
    """
    x = Tensor._lift(x)
    weight = Tensor._lift(weight)
    _check_nchw(x, "conv2d")
    n, c_in, h, w = x.data.shape
    c_out, c_in_g, kh, kw = weight.data.shape
    if kh % 2 != 1 or kw % 2 != 1:
        raise ShapeError("conv2d supports odd kernel sizes only")
    if c_in % groups or c_out % groups or c_in_g != c_in // groups:
        raise ShapeError(
            f"conv2d group mismatch: C_in={c_in}, C_out={c_out}, groups={groups}, "
            f"weight C_in/groups={c_in_g}"
        )

    def vjp(g):
        # The columns are rebuilt rather than kept: holding them for every
        # convolution on the tape would raise the peak memory.
        cols = _windows(x.data, kh, kw, dilation).reshape(n, groups, -1, h * w)
        gg = g.reshape(n, groups, c_out // groups, h * w)
        gw = (gg @ cols.transpose(0, 1, 3, 2)).sum(axis=0)
        # The input gradient correlates g with each group's kernel, its
        # channel axes swapped and both spatial axes flipped.
        flipped = weight.data.reshape(groups, c_out // groups, c_in_g, kh, kw)
        flipped = flipped.transpose(0, 2, 1, 3, 4)[..., ::-1, ::-1]
        gx = _correlate(g, flipped.reshape(c_in, c_out // groups, kh, kw), dilation, groups)
        return (gx, gw.reshape(c_out, c_in_g, kh, kw))

    return _make(_correlate(x.data, weight.data, dilation, groups), (x, weight), vjp)


def tap_columns(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """New (N, C * kh * kw, H * W) copy of the kh x kw "same" windows of
    `x`, zero outside the map."""
    n, c, h, w = x.shape
    return _windows(x, kh, kw).reshape(n, c * kh * kw, h * w)


def tap_correlate(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """"Same" correlation of M row groups, each with its own kernel, as one
    batched product. `kernel` is (M, C_out, C, kh, kw); the N rows of `x`
    split into M equal groups, and group m is correlated with kernel[m]."""
    n, c, h, w = x.shape
    m, c_out, _, kh, kw = kernel.shape
    cols = tap_columns(x, kh, kw).reshape(m, n // m, -1, h * w)
    return (kernel.reshape(m, 1, c_out, -1) @ cols).reshape(n, c_out, h, w)


def _window_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each 3x3 "same" window, zero outside."""
    return _windows(x, 3, 3).sum(axis=(2, 3))


@lru_cache(maxsize=None)
def _valid_taps(h: int, w: int) -> np.ndarray:
    """Read-only (1, 1, h, w) count of the 3x3 window taps inside an h x w map."""
    count = _window_sum(np.ones((1, 1, h, w)))
    count.flags.writeable = False
    return count


def avg_pool3x3(x: Tensor) -> Tensor:
    """3x3 mean pooling, stride 1, same padding; padding excluded from the count."""
    x = Tensor._lift(x)
    _check_nchw(x, "avg_pool3x3")
    count = _valid_taps(*x.data.shape[2:])

    def vjp(g):
        return (_window_sum(g / count),)

    return _make(_window_sum(x.data) / count, (x,), vjp)


def max_pool3x3(x: Tensor) -> Tensor:
    """3x3 max pooling, stride 1, same padding.

    Gradient routes to the first maximal element in row-major window order.
    """
    x = Tensor._lift(x)
    _check_nchw(x, "max_pool3x3")
    n, c, h, w = x.data.shape
    taps = _windows(x.data, 3, 3, fill=-np.inf).reshape(n, c, 9, h, w)
    idx = np.argmax(taps, axis=2)  # first max in tap scan order
    out = np.take_along_axis(taps, idx[:, :, None], axis=2)[:, :, 0]

    def vjp(g):
        # Each output sends g to its chosen tap's place in the padded grid.
        hp, wp = h + 2, w + 2
        corner = (np.arange(n * c).reshape(n, c, 1, 1) * hp + np.arange(h)[:, None]) * wp
        place = corner + np.arange(w) + (idx // 3) * wp + idx % 3
        gx = np.bincount(place.ravel(), weights=g.ravel(), minlength=n * c * hp * wp)
        return (gx.reshape(n, c, hp, wp)[:, :, 1 : 1 + h, 1 : 1 + w],)

    return _make(out, (x,), vjp)


def channel_mix(x: Tensor, weight: Tensor) -> Tensor:
    """Apply a (C_out, C_in) matrix across the channel axis (a 1x1 convolution)."""
    x = Tensor._lift(x)
    weight = Tensor._lift(weight)
    _check_nchw(x, "channel_mix")
    if weight.data.ndim != 2 or weight.data.shape[1] != x.data.shape[1]:
        raise ShapeError(
            f"channel_mix weight {weight.data.shape} incompatible with input "
            f"channels {x.data.shape[1]}"
        )
    out = np.einsum("oc,nchw->nohw", weight.data, x.data)

    def vjp(g):
        gx = np.einsum("oc,nohw->nchw", weight.data, g)
        gw = np.einsum("nohw,nchw->oc", g, x.data)
        return (gx, gw)

    return _make(out, (x, weight), vjp)
