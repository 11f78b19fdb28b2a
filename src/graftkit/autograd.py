"""Reverse-mode automatic differentiation over dense float64 tensors.

A ``Tape`` records every primitive op executed while it is active; backward
replays the node list in reverse, accumulating vector-Jacobian products in a
single fixed order so repeated runs are bit-identical.  With no tape active,
ops run eagerly as plain numpy and build no graph (inference mode).

Primitives: matmul, linear (x @ w + b), add, mul, transpose, reshape,
split_heads / merge_heads (a reshape and a transpose as one op), concat,
take, layer_norm, gelu, cross_entropy, scaled-dot-product attention
(``sdpa``, under a ``Visible`` description of the keys each row sees, the one
kind of mask it takes; it runs one loop over query tiles, a single tile of
every row unless long causal rows split into tiles over the key columns each
can see), reduce mean/max, l2_normalize.  Everything else is composed
from these.
No primitive writes to its inputs or to the gradient its VJP receives;
in-place numpy work happens only on buffers the primitive allocated itself.

A decode step runs hundreds of small ops, so two rules keep each op's fixed
cost down without moving a bit:

- A forward computes only its output.  What only the VJP needs (an inverse
  permutation, split points) is computed in the VJP, which an untaped call
  never runs.
- Reductions call the ufunc directly: ``np.add.reduce`` for a sum,
  ``np.maximum.reduce`` for a max, ``np.logical_and.reduce`` for "all", and a
  mean is ``np.add.reduce`` divided by the count.  The ndarray methods
  (``.sum``, ``.max``, ``.all``, ``.mean``) are Python wrappers around those
  same reductions (numpy's ``_methods._mean`` is the sum, then a true divide
  by the count), so the bits are the same and only the wrapper's cost goes.
  Attention keeps to this too: its row max and row sums, and its tiles'
  bounds, are ``np.maximum.reduce`` / ``np.add.reduce`` /
  ``np.minimum.reduce`` calls, and its scale is ``math.sqrt``, the same
  correctly rounded root as ``np.sqrt`` without a numpy scalar's cost.
"""

from __future__ import annotations

import math
import threading
from itertools import accumulate

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
NEG_INF = -1e9  # the additive mask value of a hidden key


class Tensor:
    """Dense float64 tensor, value-like."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            # contiguous so .reshape(-1) is a mutable view, which the tests'
            # finite-difference oracle (tests/helpers.py) writes through
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named leaf tensor.  Frozen parameters never enter the graph.

    ``version`` counts the writes to ``data``: every in-place write goes
    through ``write``, which adds one, so a value computed from the
    parameter at one version is known to be stale at any other
    (``ParamRegistry.memo``, ``LmState``)."""

    __slots__ = ("name", "frozen", "version")

    def __init__(self, name: str, data, frozen: bool = False):
        super().__init__(data, requires_grad=not frozen)
        self.name = name
        self.frozen = frozen
        self.version = 0

    def write(self, value, ufunc=None) -> None:
        """Set ``data`` to ``value``, or to ``ufunc(data, value)`` (say
        ``np.subtract``), in place, and bump ``version``."""
        if ufunc is None:
            self.data[...] = value
        else:
            ufunc(self.data, value, out=self.data)
        self.version += 1

    def freeze(self) -> None:
        self.frozen = True
        self.requires_grad = False

    def __repr__(self):
        state = "frozen" if self.frozen else "trainable"
        return f"Parameter({self.name!r}, shape={self.data.shape}, {state})"


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

    def gradients(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Backward pass from the scalar ``loss``; returns {param name:
        gradient} for every reached unfrozen parameter, in order of first
        appearance on the tape."""
        if loss.data.size != 1:
            raise ValueError("gradients requires a scalar loss")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self.nodes):
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
        for t in [*(inp for node in self.nodes for inp in node.inputs), loss]:
            if isinstance(t, Parameter) and t.requires_grad and id(t) in grads:
                named[t.name] = grads[id(t)]
        return named


def _record(out: Tensor, inputs: tuple, vjp) -> Tensor:
    if not np.logical_and.reduce(np.isfinite(out.data), axis=None):
        raise FloatingPointError("non-finite values produced by an op")
    tape = _tape_state.current
    if tape is None:
        return out
    tracked = tuple(t for t in inputs if t.requires_grad)
    if not tracked:
        return out
    out.requires_grad = True
    if len(tracked) == len(inputs):
        tape.nodes.append(_Node(tracked, out, vjp))
        return out
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
        g = np.add.reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axis=axes, keepdims=True)
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for ``x`` (..., d_in), ``w`` (d_in, d_out), ``b`` (d_out,):
    one tape node and one output buffer, bitwise equal to
    ``add(matmul(x, w), b)``.  The weight gradient is one 2-D GEMM over all
    leading axes, and gradients are computed only for inputs that need one."""
    if x.ndim < 2:
        raise ValueError("linear requires ndim >= 2 input")
    y = np.matmul(x.data, w.data)
    y += b.data
    out = Tensor(y)
    d_in, d_out = w.shape
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def vjp(g):
        g2 = g.reshape(-1, d_out)
        gx = gw = gb = None
        if need_x:
            gx = np.empty(x.shape)
            np.matmul(g2, w.data.T, out=gx.reshape(-1, d_in))
        if need_w:
            gw = x.data.reshape(-1, d_in).T @ g2
        if need_b:
            gb = np.add.reduce(g2, axis=0)
        return gx, gw, gb

    return _record(out, (x, w, b), vjp)


def transpose(a: Tensor, axes=None) -> Tensor:
    out = Tensor(a.data.transpose(axes))

    def vjp(g):
        if axes is None:  # reversed axes: their own inverse
            return (g.transpose(),)
        inv = [0] * g.ndim
        for i, ax in enumerate(axes):
            inv[ax] = i
        return (g.transpose(inv),)

    return _record(out, (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.shape),))


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(B, L, n_heads * dh) rows to (B, n_heads, L, dh) heads: one op,
    bitwise equal to ``transpose(reshape(x, (B, L, n_heads, dh)), (0, 2, 1,
    3))``; its VJP is ``merge_heads``'s forward."""
    b, l, d = x.shape
    out = Tensor(x.data.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3))
    return _record(out, (x,), lambda g: (g.transpose(0, 2, 1, 3).reshape(b, l, d),))


def merge_heads(x: Tensor) -> Tensor:
    """(B, heads, L, dh) heads back to (B, L, heads * dh) rows: one op,
    bitwise equal to ``reshape(transpose(x, (0, 2, 1, 3)), (B, L, heads *
    dh))``; its VJP is ``split_heads``'s forward."""
    b, h, l, dh = x.shape
    out = Tensor(x.data.transpose(0, 2, 1, 3).reshape(b, l, h * dh))
    return _record(out, (x,), lambda g: (g.reshape(b, l, h, dh).transpose(0, 2, 1, 3),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))

    def vjp(g):
        splits = list(accumulate(t.shape[axis] for t in tensors[:-1]))
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
    cdf = x.data * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = Tensor(x.data * cdf)

    def vjp(g):
        gx = x.data * -0.5
        gx *= x.data
        np.exp(gx, out=gx)
        gx *= _INV_SQRT2PI  # the pdf
        gx *= x.data
        gx += cdf
        gx *= g
        return (gx,)

    return _record(out, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (variance + 1e-5),
    then scale-shift."""
    n = x.shape[-1]
    xhat = x.data - np.add.reduce(x.data, -1, keepdims=True) / n
    y = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(y, -1, keepdims=True) / n + 1e-5)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y)

    def vjp(g):
        g_xhat = g * gain.data
        gx = inv * (
            g_xhat
            - np.add.reduce(g_xhat, -1, keepdims=True) / n
            - xhat * (np.add.reduce(g_xhat * xhat, -1, keepdims=True) / n)
        )
        g_gain = _unbroadcast(g * xhat, gain.shape)
        g_bias = _unbroadcast(g, bias.shape)
        return gx, g_gain, g_bias

    return _record(out, (x, gain, bias), vjp)


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
    if (np.logical_or.reduce(tgt < 0, axis=None)
            or np.logical_or.reduce(tgt >= lg.shape[1], axis=None)):
        raise ValueError("target class index out of range")
    if mask is None:
        m = np.ones(lg.shape[0], dtype=np.float64)
    else:
        m = np.asarray(mask, dtype=np.float64)
        if m.shape != (lg.shape[0],):
            raise ValueError(f"cross_entropy mask has shape {m.shape}; "
                             f"expected one entry per logits row ({lg.shape[0]},)")
    nsel = np.add.reduce(m)
    if nsel <= 0:
        raise ValueError("cross_entropy mask selects no positions")

    mx = np.maximum.reduce(lg, axis=1, keepdims=True)
    e = np.exp(lg - mx)
    z = np.add.reduce(e, axis=1, keepdims=True)
    lse = np.log(z[:, 0]) + mx[:, 0]
    nll = lse - lg[np.arange(lg.shape[0]), tgt]
    out = Tensor(np.asarray(np.add.reduce(nll * m) / nsel))

    def vjp(g):
        p = e / z
        p[np.arange(lg.shape[0]), tgt] -= 1.0
        grad = p * (m / nsel)[:, None] * g
        return (grad[0] if squeeze else grad,)

    return _record(out, (logits,), vjp)


# ``sdpa``'s causal tiling (``_tiles``): from ``_TILED_FROM`` query rows up,
# each tile of ``_TILE`` consecutive rows runs against only the key columns it
# can see.  Measured on the fixture LM (dim 96, 2 heads of 48, 4 blocks), one
# BLAS thread: a one-row part's taped forward plus backward, tiled / one-tile
# medians over 6 alternating rounds, was 1.03 at 80 rows, 1.01 at 96, 0.99 at
# 112, 1.00 at 128, 1.01 at 144, 0.97 at 160, 0.96 at 192, 0.93 at 256 and
# 0.87 at 365 (66.3 against 76.2 ms).  Break-even is thus between 112 and 144
# rows; tiling starts at two full tiles.  Tiles of 32, 48 and 96 rows ran
# within 1% of 64 at 200 to 365 rows.
_TILE = 64
_TILED_FROM = 2 * _TILE


class Visible:
    """What each query row of ``sdpa`` sees: the key columns up to its last
    visible one, ``cols``, except the span [lo, hi) of ``gap = (lo, hi)``,
    each an int or int array broadcastable to (..., rows); a 1-D ``cols`` of
    the rows' own columns is the causal rule.  It gives each of ``sdpa``'s
    tiles its additive mask (``piece``), the one place that reads
    ``NEG_INF``.  The first ``sdpa`` that runs it as one tile builds the
    whole pass's mask and keeps it for the blocks of the same pass, which
    have the same rows and keys."""

    __slots__ = ("cols", "gap", "_dense")

    def __init__(self, cols, gap=None, _dense=None):
        self.cols, self.gap, self._dense = np.asarray(cols), gap, _dense

    def dense(self, n_keys: int):
        """The additive mask (..., rows or 1, n_keys): ``NEG_INF`` where
        hidden, 0 elsewhere; None when every row sees every key."""
        if self._dense is None and (self.gap is not None
                                    or np.minimum.reduce(self.cols, axis=None) < n_keys - 1):
            keys = np.arange(n_keys)
            hidden = keys > self.cols[..., None]
            if self.gap is not None:
                lo, hi = (np.expand_dims(g, -1) for g in self.gap)
                hidden = hidden | ((keys >= lo) & (keys < hi))
            self._dense = np.where(hidden, NEG_INF, 0.0)
        return self._dense

    def piece(self, rows: slice, lo: int, hi: int):
        """The additive mask on the key columns [lo, hi) of the rows ``rows``
        of one ``sdpa`` tile (``_tiles``): ``dense(hi)`` for the tile of every
        row, else the triangle of the tile's own columns."""
        if rows.stop is None:
            return self.dense(hi)
        return np.where(np.arange(lo, hi) > self.cols[rows, None], NEG_INF, 0.0)

    def rows(self, rows) -> "Visible":
        """The description of the query rows ``rows`` alone; a dense mask
        already built is sliced, not built again.  What has no rows axis, or
        one of length 1, holds for every row and is kept as it is."""
        def pick(a, axis=-1):
            return a if np.ndim(a) < -axis or np.shape(a)[axis] == 1 else np.take(a, rows, axis)

        gap = None if self.gap is None else tuple(pick(g) for g in self.gap)
        dense = None if self._dense is None else pick(self._dense, -2)
        return Visible(pick(self.cols), gap, dense)


def _tiles(mask: Visible | None, m: int, n: int) -> list[tuple[slice, int, int]]:
    """``sdpa``'s query tiles for ``m`` rows over ``n`` keys: (rows, lo, hi)
    per tile, whose rows run over the key columns [0, hi) and all see those
    before ``lo``.  A 1-D description without a gap over ``_TILED_FROM`` rows
    or more gets tiles of ``_TILE`` rows, each up to its last visible column;
    any other runs as one tile of every row (``slice(None)``) over all keys."""
    if mask is None or mask.gap is not None or mask.cols.ndim != 1 or m < _TILED_FROM:
        return [(slice(None), 0, n)]
    tiles = []
    for i0 in range(0, m, _TILE):
        p = mask.cols[i0:i0 + _TILE]
        tiles.append((slice(i0, i0 + len(p)), int(np.minimum.reduce(p)),
                      int(np.maximum.reduce(p)) + 1))
    return tiles


def _add_rows(total, part):
    """``part`` added into the first rows of ``total``, or ``part`` if None."""
    if total is None:
        return part
    total[..., :part.shape[-2], :] += part
    return total


def sdpa(q: Tensor, k: Tensor, v: Tensor, mask: Visible | None = None) -> Tensor:
    """Scaled-dot-product attention over the last two axes, scaled by
    1/sqrt(head dim), each query row over the keys ``mask`` says it sees
    (every key when None).  Any other ``mask``, an additive array included,
    raises ``TypeError``.

    It runs as the query tiles of ``_tiles``: each computes its logits,
    softmax and VJP over the key columns it can see, its mask
    (``Visible.piece``) added in one add, so each visible logit is exact and
    each hidden one's weight exactly 0, bitwise as under any sum of additive
    masks that hides the same keys.  One tile runs on the whole arrays; over
    several, the low bits differ from one tile's.
    """
    if mask is not None and not isinstance(mask, Visible):
        raise TypeError(f"sdpa's mask is a Visible or None, not {type(mask).__name__}")
    sc = 1.0 / math.sqrt(q.shape[-1])
    tiles = _tiles(mask, q.shape[-2], k.shape[-2])
    cut = len(tiles) > 1  # one tile is every row over every key: nothing to slice
    saved, outs = [], []  # what the VJP reads of each tile, each tile's output
    for rows, lo, hi in tiles:
        q_t, k_t, v_t = ((q.data[..., rows, :], k.data[..., :hi, :], v.data[..., :hi, :])
                         if cut else (q.data, k.data, v.data))
        # the softmax runs in place in the logits buffer
        att = np.matmul(q_t, np.swapaxes(k_t, -1, -2))
        att *= sc
        if mask is not None and (piece := mask.piece(rows, lo, hi)) is not None:
            # not ``att[..., lo:hi] +=``: its write-back cost a decode step 1-2 us
            span = att[..., lo:hi] if cut else att
            span += piece
        att -= np.maximum.reduce(att, -1, keepdims=True)
        np.exp(att, out=att)
        att /= np.add.reduce(att, -1, keepdims=True)
        outs.append(np.matmul(att, v_t))
        saved.append((rows, q_t, k_t, v_t, att))
    out = Tensor(np.concatenate(outs, -2) if cut else outs[0])

    def vjp(g):
        # rowsum(dA * A) == rowsum(dO * O): an (L, dh) product, not an (L, L) one
        dot = np.add.reduce(g * out.data, -1, keepdims=True)
        gk = gv = None
        if cut:
            lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
            gk, gv = np.zeros(lead + k.shape[-2:]), np.zeros(lead + v.shape[-2:])
        gqs = []
        # a tile's key and value gradients are added in as soon as made: kept
        # to the end of the tile, they made 200 and 365 rows up to 8% slower
        for rows, q_t, k_t, v_t, att in saved:
            g_t, dot_t = (g[..., rows, :], dot[..., rows, :]) if cut else (g, dot)
            gv = _add_rows(gv, np.matmul(np.swapaxes(att, -1, -2), g_t))
            g_logits = np.matmul(g_t, np.swapaxes(v_t, -1, -2))
            g_logits -= dot_t
            g_logits *= att
            g_logits *= sc
            gqs.append(np.matmul(g_logits, k_t))
            gk = _add_rows(gk, np.matmul(np.swapaxes(g_logits, -1, -2), q_t))
        gq = np.concatenate(gqs, -2) if cut else gqs[0]
        return _unbroadcast(gq, q.shape), _unbroadcast(gk, k.shape), _unbroadcast(gv, v.shape)

    return _record(out, (q, k, v), vjp)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]
    out = Tensor(np.asarray(np.add.reduce(x.data, axis=axis) / n))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.shape).astype(np.float64),)
        ge = np.expand_dims(g / n, axis)
        return (np.broadcast_to(ge, x.shape).astype(np.float64),)

    return _record(out, (x,), vjp)


def reduce_max(x: Tensor, axis: int) -> Tensor:
    """Max over one axis; ties route gradient to the first occurrence."""
    arg = np.expand_dims(x.data.argmax(axis=axis), axis)
    out = Tensor(np.take_along_axis(x.data, arg, axis=axis).squeeze(axis))

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, arg, np.expand_dims(g, axis), axis=axis)
        return (gx,)

    return _record(out, (x,), vjp)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale the last axis to unit length (squared norm + 1e-12)."""
    norm = np.sqrt(np.add.reduce(x.data * x.data, -1, keepdims=True) + 1e-12)
    y = x.data / norm
    out = Tensor(y)

    def vjp(g):
        dot = np.add.reduce(g * y, -1, keepdims=True)
        return ((g - y * dot) / norm,)

    return _record(out, (x,), vjp)
