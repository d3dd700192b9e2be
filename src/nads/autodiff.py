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
    ph = dilation * (kh // 2)
    pw = dilation * (kw // 2)
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    xg = xp.reshape(n, groups, c_in // groups, h + 2 * ph, w + 2 * pw)
    wg = weight.data.reshape(groups, c_out // groups, c_in_g, kh, kw)

    out = np.zeros((n, groups, c_out // groups, h, w))
    for a in range(kh):
        for b in range(kw):
            patch = xg[:, :, :, a * dilation : a * dilation + h, b * dilation : b * dilation + w]
            out += np.einsum("goc,ngchw->ngohw", wg[:, :, :, a, b], patch)
    out = out.reshape(n, c_out, h, w)

    def vjp(g):
        gg = g.reshape(n, groups, c_out // groups, h, w)
        gx = np.zeros_like(xg)
        gw = np.zeros_like(wg)
        for a in range(kh):
            for b in range(kw):
                sl_h = slice(a * dilation, a * dilation + h)
                sl_w = slice(b * dilation, b * dilation + w)
                patch = xg[:, :, :, sl_h, sl_w]
                gw[:, :, :, a, b] += np.einsum("ngohw,ngchw->goc", gg, patch)
                gx[:, :, :, sl_h, sl_w] += np.einsum("goc,ngohw->ngchw", wg[:, :, :, a, b], gg)
        gx = gx.reshape(n, c_in, h + 2 * ph, w + 2 * pw)
        if ph or pw:
            gx = gx[:, :, ph : ph + h, pw : pw + w]
        return (gx, gw.reshape(c_out, c_in_g, kh, kw))

    return _make(out, (x, weight), vjp)


def avg_pool3x3(x: Tensor) -> Tensor:
    """3x3 mean pooling, stride 1, same padding; padding excluded from the count."""
    x = Tensor._lift(x)
    _check_nchw(x, "avg_pool3x3")
    n, c, h, w = x.data.shape
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ones = np.pad(np.ones((h, w)), ((1, 1), (1, 1)))
    acc = np.zeros((n, c, h, w))
    count = np.zeros((h, w))
    for a in range(3):
        for b in range(3):
            acc += xp[:, :, a : a + h, b : b + w]
            count += ones[a : a + h, b : b + w]
    out = acc / count

    def vjp(g):
        gc = g / count
        gx = np.zeros((n, c, h + 2, w + 2))
        for a in range(3):
            for b in range(3):
                gx[:, :, a : a + h, b : b + w] += gc
        return (gx[:, :, 1 : 1 + h, 1 : 1 + w],)

    return _make(out, (x,), vjp)


def max_pool3x3(x: Tensor) -> Tensor:
    """3x3 max pooling, stride 1, same padding.

    Gradient routes to the first maximal element in row-major window order.
    """
    x = Tensor._lift(x)
    _check_nchw(x, "max_pool3x3")
    n, c, h, w = x.data.shape
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    stacked = np.stack(
        [xp[:, :, a : a + h, b : b + w] for a in range(3) for b in range(3)], axis=0
    )
    idx = np.argmax(stacked, axis=0)  # first max in tap scan order
    out = np.take_along_axis(stacked, idx[None], axis=0)[0]

    def vjp(g):
        gx = np.zeros((n, c, h + 2, w + 2))
        for tap in range(9):
            a, b = divmod(tap, 3)
            gx[:, :, a : a + h, b : b + w] += g * (idx == tap)
        return (gx[:, :, 1 : 1 + h, 1 : 1 + w],)

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
