"""Dense float tensors with reverse-mode automatic differentiation.

Everything the model computes runs through this module: 2-D matmul, row
softmax, layer norm, the tokenizer's patch projection, GELU, cross entropy,
and the shape plumbing (reshape, concat, slicing).
Every op that touches a tensor with ``requires_grad`` records a backward
closure; ``Tensor.backward`` replays the recorded ops in exact reverse
execution order (creation stamps are monotonically increasing, so sorting
the reachable subgraph by stamp descending is the reverse of the order in
which the ops ran).

Default precision is float64 so finite-difference checks are meaningful.
Under ``set_default_dtype(np.float32)`` the parameters, the tokenizer's
patch windows, and so every token, logit, loss and gradient are float32.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NumericError, ShapeError, UsageError

_dtype = np.float64
_stamp_counter = itertools.count()

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def set_default_dtype(dtype):
    """Set the float width of tensors built from new data (float64 or float32).
    Results of ops follow numpy's type promotion, so any float64 operand
    makes them float64."""
    global _dtype
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ConfigError(f"unsupported default dtype {dt}")
    _dtype = dt.type


def default_dtype():
    return _dtype


class Tensor:
    """A dense array plus the bookkeeping needed to backpropagate into it."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_stamp")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._stamp = next(_stamp_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def backward(self):
        """Accumulate gradients of this scalar into every reachable parameter."""
        if self.data.size != 1:
            raise UsageError("backward expects a scalar loss tensor")
        if not self.requires_grad:
            raise UsageError("backward on a tensor detached from any gradient tape")
        nodes = []
        stack = [self]
        seen = {id(self)}
        while stack:
            t = stack.pop()
            nodes.append(t)
            for p in t._parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        nodes.sort(key=lambda t: t._stamp, reverse=True)
        self.grad = np.ones_like(self.data)
        for t in nodes:
            if t._backward_fn is not None and t.grad is not None:
                t._backward_fn(t.grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return sum_all(self)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents):
    out = Tensor(data, dtype=data.dtype)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
    return out


def _accumulate(t, g):
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} != tensor shape {t.data.shape}")
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g, shape):
    # Sum the gradient back down to `shape` after numpy broadcasting.
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    """Elementwise sum; shapes must match or be broadcastable by size-1 axes."""
    a, b = as_tensor(a), as_tensor(b)
    out = _result(a.data + b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g, b.data.shape))
        out._backward_fn = backward
    return out


def mul(a, b):
    """Elementwise product; accepts python scalars and scalar tensors."""
    a, b = as_tensor(a), as_tensor(b)
    out = _result(a.data * b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
        out._backward_fn = backward
    return out


def matmul(a, b):
    """2-D matrix product. dA = dC @ B^T, dB = A^T @ dC."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.data.shape} @ {b.data.shape}")
    out = _result(a.data @ b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                _accumulate(a, g @ b.data.T)
            if b.requires_grad:
                _accumulate(b, a.data.T @ g)
        out._backward_fn = backward
    return out


def transpose(x):
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.data.shape}")
    out = _result(x.data.T.copy(), (x,))
    if out.requires_grad:
        out._backward_fn = lambda g: _accumulate(x, g.T)
    return out


def reshape(x, shape):
    x = as_tensor(x)
    out = _result(x.data.reshape(shape), (x,))
    if out.requires_grad:
        out._backward_fn = lambda g: _accumulate(x, g.reshape(x.data.shape))
    return out


def broadcast_to(x, shape):
    """Expand size-1 axes to `shape`; backward sums over the expanded axes."""
    x = as_tensor(x)
    out = _result(np.broadcast_to(x.data, shape).copy(), (x,))
    if out.requires_grad:
        out._backward_fn = lambda g: _accumulate(x, _unbroadcast(g, x.data.shape))
    return out


def sum_all(x):
    x = as_tensor(x)
    out = _result(np.asarray(x.data.sum()), (x,))
    if out.requires_grad:
        out._backward_fn = lambda g: _accumulate(x, np.broadcast_to(g, x.data.shape).copy())
    return out


def mean_axis(x, axis, keepdims=False):
    """Arithmetic mean over one listed axis."""
    x = as_tensor(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.data.shape}")
    axis = axis % x.data.ndim
    n = x.data.shape[axis]
    out = _result(x.data.mean(axis=axis, keepdims=keepdims), (x,))
    if out.requires_grad:
        def backward(g):
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(g / n, x.data.shape).copy())
        out._backward_fn = backward
    return out


def concat(tensors, axis):
    """Concatenate along one axis (used for heads on the last axis and token unions on rows)."""
    tensors = [as_tensor(t) for t in tensors]
    out = _result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    _accumulate(t, g[tuple(idx)])
        out._backward_fn = backward
    return out


def slice_axis(x, axis, start, stop):
    """Contiguous slice along one axis; backward scatters into zeros."""
    x = as_tensor(x)
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = _result(x.data[idx].copy(), (x,))
    if out.requires_grad:
        def backward(g):
            full = np.zeros_like(x.data)
            full[idx] = g
            _accumulate(x, full)
        out._backward_fn = backward
    return out


def softmax_rows(x):
    """Row softmax of a 2-D tensor, stabilized by row-max subtraction."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D tensor, got {x.data.shape}")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax_rows input contains NaN or Inf")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = _result(y, (x,))
    if out.requires_grad:
        def backward(g):
            dot = (g * y).sum(axis=1, keepdims=True)
            _accumulate(x, (g - dot) * y)
        out._backward_fn = backward
    return out


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    if eps <= 0:
        raise ConfigError("layer_norm eps must be positive")
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"layer_norm parameters must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _result(xhat * gamma.data + beta.data, (x, gamma, beta))
    if out.requires_grad:
        def backward(g):
            if gamma.requires_grad:
                _accumulate(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
            if beta.requires_grad:
                _accumulate(beta, g.reshape(-1, d).sum(axis=0))
            if x.requires_grad:
                gg = g * gamma.data
                m1 = gg.mean(axis=-1, keepdims=True)
                m2 = (gg * xhat).mean(axis=-1, keepdims=True)
                _accumulate(x, (gg - m1 - xhat * m2) * inv)
        out._backward_fn = backward
    return out


def gelu(x):
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * INV_SQRT2))
    out = _result(x.data * cdf, (x,))
    if out.requires_grad:
        def backward(g):
            pdf = np.exp(-0.5 * x.data * x.data) * INV_SQRT_2PI
            _accumulate(x, g * (cdf + x.data * pdf))
        out._backward_fn = backward
    return out


def project_patches(windows, kernel, bias):
    """Shared linear projection of constant patch windows into time-major tokens.

    `windows` is a plain (B, L, P, P, C) array (B parts, L steps) that takes
    no gradient; `kernel` is D x P x P x C and `bias` is (D,). Output row
    t*B + p is kernel . windows[p, t] + bias. The backward pass accumulates
    the kernel and bias gradients part by part, last part first.
    """
    kernel, bias = as_tensor(kernel), as_tensor(bias)
    if windows.ndim != 5 or windows.shape[2:] != kernel.data.shape[1:]:
        raise ShapeError(f"windows {windows.shape} do not fit kernel {kernel.data.shape}")
    d = kernel.data.shape[0]
    if bias.data.shape != (d,):
        raise ShapeError(f"bias must have shape ({d},)")
    n_parts, ell = windows.shape[:2]
    per_part = [np.einsum("jpqc,dpqc->jd", w, kernel.data) + bias.data for w in windows]
    out = _result(np.stack(per_part, axis=1).reshape(ell * n_parts, d), (kernel, bias))
    if out.requires_grad:
        def backward(g):
            rows = g.reshape(ell, n_parts, d)
            for p in reversed(range(n_parts)):
                gp = np.ascontiguousarray(rows[:, p])
                if kernel.requires_grad:
                    _accumulate(kernel, np.einsum("jd,jpqc->dpqc", gp, windows[p]))
                if bias.requires_grad:
                    _accumulate(bias, gp.sum(axis=0))
        out._backward_fn = backward
    return out


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer class labels under softmax(logits)."""
    logits = as_tensor(logits)
    ld = logits.data if logits.data.ndim == 2 else logits.data[None, :]
    if not np.isfinite(ld).all():
        raise NumericError("cross_entropy logits contain NaN or Inf")
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    n, c = ld.shape
    if labels.shape != (n,):
        raise ShapeError(f"need {n} labels, got {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise ConfigError(f"label out of range for {c} classes")
    z = ld - ld.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -logp[np.arange(n), labels].mean()
    out = _result(np.asarray(loss), (logits,))
    if out.requires_grad:
        def backward(g):
            grad = np.exp(logp)
            grad[np.arange(n), labels] -= 1.0
            grad *= float(g) / n
            _accumulate(logits, grad.reshape(logits.data.shape))
        out._backward_fn = backward
    return out


def linear(x, w, b=None):
    """x @ w (+ row-broadcast bias)."""
    y = matmul(x, w)
    return y if b is None else add(y, b)


def dropout(x, rate, rng):
    """Inverted dropout with a caller-supplied generator (off when rate == 0)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return x
    x = as_tensor(x)
    mask = (rng.uniform(size=x.data.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(mask))


def sgd_nesterov_step(params, grads, state, lr, momentum=0.9):
    """One Nesterov-momentum SGD update, in place on the parameter arrays.

    Per parameter: v <- momentum*v + g ; w <- w - lr*(g + momentum*v).
    `state` holds the velocity array for each parameter and is updated in place.
    """
    if lr <= 0:
        raise ConfigError("learning rate must be positive")
    if not (len(params) == len(grads) == len(state)):
        raise ShapeError("params, grads and state must have equal length")
    for w, g, v in zip(params, grads, state):
        wd = w.data if isinstance(w, Tensor) else w
        if g.shape != wd.shape or v.shape != wd.shape:
            raise ShapeError(f"param/grad/state shapes disagree: {wd.shape}, {g.shape}, {v.shape}")
        v *= momentum
        v += g
        wd -= lr * (g + momentum * v)
    return params, state
