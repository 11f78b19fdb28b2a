"""Reverse-mode automatic differentiation over dense float64 tensors.

A ``Tape`` records every primitive op executed while it is active; backward
replays the node list in reverse, accumulating vector-Jacobian products in a
single fixed order so repeated runs are bit-identical.  With no tape active,
ops run eagerly as plain numpy and build no graph (inference mode).

Primitives: matmul, add, mul, transpose, reshape, concat, take, layer_norm,
gelu, softmax, cross_entropy, masked scaled-dot-product attention, reduce
mean/sum/max, l2_normalize.  Everything else is composed from these.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """Dense float64 tensor, value-like.  ``grad`` is filled by backward."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            # contiguous so .reshape(-1) is a mutable view (finite diffs rely on it)
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; composes primitives, no new node kinds
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __sub__(self, other):
        return add(self, mul(_wrap(other), _const(-1.0)))

    def __rsub__(self, other):
        return add(_wrap(other), mul(self, _const(-1.0)))

    def __neg__(self):
        return mul(self, _const(-1.0))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def reshape(self, shape):
        return reshape(self, shape)


class Parameter(Tensor):
    """Named leaf tensor.  Frozen parameters never enter the graph."""

    __slots__ = ("name", "frozen")

    def __init__(self, name: str, data, frozen: bool = False):
        super().__init__(data, requires_grad=not frozen)
        self.name = name
        self.frozen = frozen

    def freeze(self) -> None:
        self.frozen = True
        self.requires_grad = False

    def __repr__(self):
        state = "frozen" if self.frozen else "trainable"
        return f"Parameter({self.name!r}, shape={self.data.shape}, {state})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _const(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64))


class _Node:
    __slots__ = ("inputs", "output", "vjp")

    def __init__(self, inputs, output, vjp):
        self.inputs = inputs  # only inputs that require grad
        self.output = output
        self.vjp = vjp  # grad_out -> tuple of grads aligned with inputs


class _TapeState(threading.local):
    current: "Tape | None" = None


_tape_state = _TapeState()


class Tape:
    """Ordered op recorder; context manager.  A tape is confined to the
    thread that opened it; independent threads may each run their own."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        if _tape_state.current is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        _tape_state.current = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_state.current = None
        return False

    def gradients(self, loss: Tensor, seed_grad=None) -> dict[str, np.ndarray]:
        """Backward pass from ``loss``; returns {param name: gradient}.

        Also sets ``.grad`` on every reached unfrozen leaf.  ``seed_grad``
        overrides the default all-ones seed (used to inject an upstream
        gradient at a non-scalar node).
        """
        return backward(self, loss, seed_grad=seed_grad)


def backward(tape: Tape, loss: Tensor, seed_grad=None) -> dict[str, np.ndarray]:
    if seed_grad is None:
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ValueError("backward requires a scalar loss (or explicit seed_grad)")
        seed = np.ones_like(loss.data)
    else:
        seed = np.asarray(seed_grad, dtype=np.float64)
        if seed.shape != loss.data.shape:
            raise ValueError("seed_grad shape does not match node shape")

    grads: dict[int, np.ndarray] = {id(loss): seed}
    for node in reversed(tape.nodes):
        g_out = grads.pop(id(node.output), None)
        if g_out is None:
            continue
        for inp, g in zip(node.inputs, node.vjp(g_out)):
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g.copy() if g.base is not None or g is g_out else g

    named: dict[str, np.ndarray] = {}
    seen: set[int] = set()
    for node in tape.nodes:
        for inp in node.inputs:
            if id(inp) in seen or id(inp) not in grads:
                continue
            seen.add(id(inp))
            inp.grad = grads[id(inp)]
            if isinstance(inp, Parameter):
                named[inp.name] = inp.grad
    if id(loss) in grads and loss.requires_grad and id(loss) not in seen:
        loss.grad = grads[id(loss)]
        if isinstance(loss, Parameter):
            named[loss.name] = loss.grad
    return named


def _record(out: Tensor, inputs: tuple, vjp) -> Tensor:
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("non-finite values produced by an op")
    tape = _tape_state.current
    if tape is None:
        return out
    tracked = tuple(t for t in inputs if t.requires_grad)
    if not tracked:
        return out
    out.requires_grad = True
    # vjp receives grads for all inputs; filter to the tracked subset
    idx = [i for i, t in enumerate(inputs) if t.requires_grad]

    def filtered(g_out):
        full = vjp(g_out)
        return tuple(full[i] for i in idx)

    tape.nodes.append(_Node(tracked, out, filtered))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    return _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires ndim >= 2 on both operands")
    out = Tensor(np.matmul(a.data, b.data))

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), vjp)


def transpose(a: Tensor, axes=None) -> Tensor:
    out = Tensor(np.transpose(a.data, axes))
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))
    return _record(out, (a,), lambda g: (np.transpose(g, inv),))


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.shape),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), vjp)


def take(x: Tensor, idx, axis: int = 0) -> Tensor:
    """``np.take(x, idx, axis)``: embedding lookup and row selection.

    The VJP scatter-adds into zeros, so repeated indices accumulate.
    """
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(np.take(x.data, idx, axis=axis))
    where = (slice(None),) * (axis % x.ndim) + (idx,)

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, where, g)
        return (gx,)

    return _record(out, (x,), vjp)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * cdf)

    def vjp(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        return (g * (cdf + x.data * pdf),)

    return _record(out, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    n = x.shape[-1]

    def vjp(g):
        g_xhat = g * gain.data
        gx = inv * (
            g_xhat
            - g_xhat.mean(axis=-1, keepdims=True)
            - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True)
        )
        g_gain = _unbroadcast(g * xhat, gain.shape)
        g_bias = _unbroadcast(g, bias.shape)
        return gx, g_gain, g_bias

    return _record(out, (x, gain, bias), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.size == 0:
        raise ValueError("softmax of empty input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((g - dot) * s,)

    return _record(out, (x,), vjp)


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-softmax at ``targets``.

    ``logits`` is (V,) or (N, V); ``targets`` an int or int array; ``mask``
    optionally selects which rows enter the mean (at least one required).
    """
    lg = logits.data
    squeeze = lg.ndim == 1
    if squeeze:
        lg = lg[None, :]
    tgt = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if tgt.shape[0] != lg.shape[0]:
        raise ValueError("targets length does not match logits rows")
    if np.any(tgt < 0) or np.any(tgt >= lg.shape[1]):
        raise ValueError("target class index out of range")
    if mask is None:
        m = np.ones(lg.shape[0], dtype=np.float64)
    else:
        m = np.asarray(mask, dtype=np.float64)
    nsel = m.sum()
    if nsel <= 0:
        raise ValueError("cross_entropy mask selects no positions")

    shifted = lg - lg.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + lg.max(axis=1)
    nll = lse - lg[np.arange(lg.shape[0]), tgt]
    out = Tensor(np.asarray((nll * m).sum() / nsel))

    def vjp(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(lg.shape[0]), tgt] -= 1.0
        grad = p * (m / nsel)[:, None] * g
        return (grad[0] if squeeze else grad,)

    return _record(out, (logits,), vjp)


def sdpa(q: Tensor, k: Tensor, v: Tensor, mask=None, scale: float | None = None) -> Tensor:
    """Masked scaled-dot-product attention over the last two axes.

    ``mask`` is an additive constant array broadcastable to the attention
    matrix (use large negative values to forbid positions).
    """
    dh = q.shape[-1]
    sc = scale if scale is not None else 1.0 / np.sqrt(dh)
    att_logits = np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * sc
    if mask is not None:
        att_logits = att_logits + mask
    att_logits = att_logits - att_logits.max(axis=-1, keepdims=True)
    e = np.exp(att_logits)
    att = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(np.matmul(att, v.data))

    def vjp(g):
        gv = np.matmul(np.swapaxes(att, -1, -2), g)
        g_att = np.matmul(g, np.swapaxes(v.data, -1, -2))
        dot = (g_att * att).sum(axis=-1, keepdims=True)
        g_logits = (g_att - dot) * att * sc
        gq = np.matmul(g_logits, k.data)
        gk = np.matmul(np.swapaxes(g_logits, -1, -2), q.data)
        return (
            _unbroadcast(gq, q.shape),
            _unbroadcast(gk, k.shape),
            _unbroadcast(gv, v.shape),
        )

    return _record(out, (q, k, v), vjp)


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    out = Tensor(np.asarray(x.data.sum(axis=axis)))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).astype(np.float64),)
        ge = np.expand_dims(g, axis)
        return (np.broadcast_to(ge, x.shape).astype(np.float64),)

    return _record(out, (x,), vjp)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]
    out = Tensor(np.asarray(x.data.mean(axis=axis)))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.shape).astype(np.float64),)
        ge = np.expand_dims(g / n, axis)
        return (np.broadcast_to(ge, x.shape).astype(np.float64),)

    return _record(out, (x,), vjp)


def reduce_max(x: Tensor, axis: int) -> Tensor:
    """Max over one axis; ties route gradient to the first occurrence."""
    out_data = x.data.max(axis=axis)
    out = Tensor(out_data)
    arg = x.data.argmax(axis=axis)
    onehot = np.zeros_like(x.data)
    np.put_along_axis(onehot, np.expand_dims(arg, axis), 1.0, axis=axis)

    def vjp(g):
        return (onehot * np.expand_dims(g, axis),)

    return _record(out, (x,), vjp)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True) + eps)
    y = x.data / norm
    out = Tensor(y)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - y * dot) / norm,)

    return _record(out, (x,), vjp)


# ---------------------------------------------------------------------------
# verification oracle


def finite_diff_check(f, params, step: float = 1e-5, max_coords: int = 40, seed: int = 0) -> float:
    """Compare backward() against central differences on sampled coordinates.

    ``f`` maps the live values of ``params`` to a scalar Tensor.  Frozen
    parameters receive no AD gradient and are excluded from the comparison.
    Returns max over sampled coordinates of |g_ad - g_fd| / max(1, |g_fd|).
    """
    params = list(params)
    with Tape() as tape:
        loss = f()
    grads = tape.gradients(loss)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        if not isinstance(p, Parameter) or p.frozen:
            continue
        g_ad = grads.get(p.name)
        if g_ad is None:
            g_ad = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            plus = float(f().data)
            flat[c] = orig - step
            minus = float(f().data)
            flat[c] = orig
            g_fd = (plus - minus) / (2.0 * step)
            err = abs(g_ad.reshape(-1)[c] - g_fd) / max(1.0, abs(g_fd))
            worst = max(worst, err)
    return worst
