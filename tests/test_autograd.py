import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

import graftkit.autograd as ag
from graftkit.autograd import Parameter, Tape, Tensor
from graftkit.nn import Linear, pack_texts
from graftkit.params import ParamRegistry
from graftkit.qformer import MODES, _self_mask
from helpers import (finite_diff_check, key_padding_mask, mode_mask, packed_text_reference,
                     reduce_sum, ref_sdpa, ref_sdpa_vjp)


def make_param(name, shape, seed=0, frozen=False):
    rng = np.random.default_rng(seed)
    return Parameter(name, rng.normal(0, 1, shape), frozen=frozen)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-30, 30))
@settings(max_examples=60, deadline=None)
def test_cross_entropy_sums_to_one_and_shift_invariant(logits, shift):
    # the softmax inside cross_entropy: exp(-loss) over every target is a distribution
    losses = [float(ag.cross_entropy(Tensor(logits), t).data) for t in range(len(logits))]
    assert abs(np.exp(-np.asarray(losses)).sum() - 1.0) < 1e-9
    shifted = [float(ag.cross_entropy(Tensor(np.asarray(logits) + shift), t).data)
               for t in range(len(logits))]
    assert np.all(np.abs(np.asarray(losses) - shifted) < 1e-9)


def test_cross_entropy_values():
    uniform = Tensor(np.zeros(4))
    for t in range(4):
        assert abs(float(ag.cross_entropy(uniform, t).data) - np.log(4)) < 1e-12
    assert abs(float(ag.cross_entropy(Tensor([1.0, 0.0]), 0).data)
               - np.log(1 + np.exp(-1))) < 1e-12
    assert float(ag.cross_entropy(Tensor([100.0, 0.0]), 0).data) < 1e-9
    assert float(ag.cross_entropy(Tensor([100.0, 0.0]), 0).data) >= 0.0


@pytest.mark.parametrize("mask", [[1.0], [1.0, 1.0], [1.0, 1.0, 1.0, 1.0], np.ones((3, 1))])
def test_cross_entropy_rejects_mask_of_wrong_shape(mask):
    # a length-1 mask used to broadcast silently over every row
    logits = Tensor(np.arange(9.0).reshape(3, 3))
    with pytest.raises(ValueError, match=r"mask has shape \(.*\).*\(3,\)"):
        ag.cross_entropy(logits, [0, 1, 2], mask=np.asarray(mask))


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError):
        ag.cross_entropy(Tensor([0.0, 1.0]), 2)
    with pytest.raises(ValueError):
        ag.cross_entropy(Tensor([0.0, 1.0]), -1)


def test_backward_square():
    x = Parameter("x", [3.0])
    with Tape() as tape:
        loss = reduce_sum(ag.mul(x, x))
    grads = tape.gradients(loss)
    assert np.allclose(grads["x"], [6.0])


def test_backward_frozen_only_graph_is_empty():
    w = Parameter("w", np.ones(3), frozen=True)
    with Tape() as tape:
        loss = reduce_sum(ag.mul(w, w))
    grads = tape.gradients(loss)
    assert grads == {}


def test_backward_requires_scalar():
    x = Parameter("x", np.ones(3))
    with Tape() as tape:
        y = ag.mul(x, x)
    with pytest.raises(ValueError):
        tape.gradients(y)


def test_gradients_is_scalar_only():
    x = Parameter("x", np.ones((2, 3)))
    with Tape() as tape:
        y = reduce_sum(ag.mul(x, x), axis=1)
    with pytest.raises(ValueError, match="scalar"):
        tape.gradients(y)
    with pytest.raises(TypeError):
        tape.gradients(y, seed_grad=np.ones(2))  # no seeded backward from a non-scalar


def test_backward_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(7)
        a = Parameter("a", rng.normal(0, 1, (4, 5)))
        b = Parameter("b", rng.normal(0, 1, (5, 3)))
        with Tape() as tape:
            h = ag.gelu(ag.matmul(a, b))
            loss = ag.cross_entropy(h, [0, 2, 1, 0])
        g = tape.gradients(loss)
        return float(loss.data), g["a"].tobytes(), g["b"].tobytes()

    assert run() == run()


def test_finite_diff_quadratic_form():
    rng = np.random.default_rng(3)
    q = rng.normal(0, 1, (5, 5))
    q = q + q.T
    x = Parameter("x", rng.normal(0, 1, (5, 1)))

    def f():
        return reduce_sum(ag.mul(x, ag.matmul(Tensor(q), x)))

    assert finite_diff_check(f, [x]) < 1e-8


def test_finite_diff_excludes_frozen():
    x = Parameter("x", np.ones(2))
    w = Parameter("w", np.full(2, 2.0), frozen=True)

    def f():
        return reduce_sum(ag.mul(x, w))

    # only x is compared; a frozen coordinate never enters the max
    assert finite_diff_check(f, [x, w]) < 1e-8


PRIMS = [
    ("matmul", lambda p: reduce_sum(ag.matmul(p, Tensor(np.linspace(-1, 1, 12).reshape(4, 3))))),
    ("add", lambda p: reduce_sum(ag.add(p, Tensor(np.ones((3, 4)))))),
    ("mul", lambda p: reduce_sum(ag.mul(p, p))),
    ("transpose", lambda p: reduce_sum(ag.mul(ag.transpose(p), ag.transpose(p)))),
    ("reshape", lambda p: reduce_sum(ag.mul(ag.reshape(p, (4, 3)), Tensor(np.ones((4, 3)))))),
    ("gelu", lambda p: reduce_sum(ag.gelu(p))),
    ("mean", lambda p: ag.reduce_mean(p)),
    ("max", lambda p: reduce_sum(ag.reduce_max(p, axis=1))),
    ("l2norm", lambda p: reduce_sum(ag.mul(ag.l2_normalize(p), Tensor(np.linspace(0.1, 1, 12).reshape(3, 4))))),
    # repeated ids accumulate in the scatter-add VJP
    ("take_rows", lambda p: reduce_sum(ag.mul(ag.take(p, [2, 0, 2, 2]), Tensor(np.linspace(-1, 1, 16).reshape(4, 4))))),
    ("take_cols", lambda p: reduce_sum(ag.mul(ag.take(p, np.arange(1, 4), axis=1), Tensor(np.linspace(0, 1, 9).reshape(3, 3))))),
    ("take_scalar", lambda p: reduce_sum(ag.mul(ag.take(p, 1, axis=1), Tensor([0.5, -1.0, 2.0])))),
]


@pytest.mark.parametrize("name,fn", PRIMS, ids=[n for n, _ in PRIMS])
def test_primitive_gradients(name, fn):
    worst = 0.0
    for seed in range(20):
        p = make_param("p", (3, 4), seed=seed + 1)
        worst = max(worst, finite_diff_check(lambda: fn(p), [p], seed=seed))
    assert worst < 1e-4, f"{name}: {worst}"


def test_layer_norm_gradient():
    for seed in range(20):
        x = make_param("x", (2, 6), seed=seed)
        g = make_param("g", (6,), seed=seed + 100)
        b = make_param("b", (6,), seed=seed + 200)

        def f():
            return reduce_sum(ag.mul(ag.layer_norm(x, g, b), Tensor(np.linspace(-1, 1, 12).reshape(2, 6))))

        assert finite_diff_check(f, [x, g, b], seed=seed) < 1e-4


def test_sdpa_gradient_and_mask():
    for seed in range(20):
        q = make_param("q", (3, 4), seed=seed)
        k = make_param("k", (5, 4), seed=seed + 50)
        v = make_param("v", (5, 4), seed=seed + 90)
        mask = ag.Visible(3)  # every row sees keys 0..3, none sees key 4

        def f():
            return reduce_sum(ag.mul(ag.sdpa(q, k, v, mask=mask), Tensor(np.linspace(0, 1, 12).reshape(3, 4))))

        assert finite_diff_check(f, [q, k, v], seed=seed) < 1e-4

    # masked key receives zero attention: perturbing it changes nothing
    out1 = ag.sdpa(q, k, v, mask=mask).data.copy()
    v.data[4] += 100.0
    out2 = ag.sdpa(q, k, v, mask=mask).data
    assert np.allclose(out1, out2, atol=1e-12)


def test_cross_entropy_gradient_with_mask():
    for seed in range(20):
        p = make_param("p", (4, 5), seed=seed)
        mask = np.array([1.0, 0.0, 1.0, 1.0])

        def f():
            return ag.cross_entropy(p, [0, 1, 2, 3], mask=mask)

        assert finite_diff_check(f, [p], seed=seed) < 1e-4


def test_concat_gradient():
    a = make_param("a", (2, 3), seed=1)
    b = make_param("b", (4, 3), seed=2)

    def f():
        return reduce_sum(ag.mul(ag.concat([a, b], axis=0), Tensor(np.linspace(0, 2, 18).reshape(6, 3))))

    assert finite_diff_check(f, [a, b]) < 1e-8


def test_linear_gradient_2d_and_3d_trainable_and_frozen():
    for x_shape in [(3, 4), (2, 3, 4)]:
        for frozen in (False, True):
            for seed in range(5):
                x = make_param("x", x_shape, seed=seed)
                w = make_param("w", (4, 5), seed=seed + 50, frozen=frozen)
                b = make_param("b", (5,), seed=seed + 90, frozen=frozen)
                proj = Tensor(np.linspace(-1, 1, x.data.size // 4 * 5).reshape(x_shape[:-1] + (5,)))

                def f():
                    return reduce_sum(ag.mul(ag.linear(x, w, b), proj))

                assert finite_diff_check(f, [x, w, b], seed=seed) < 1e-6
                with Tape() as tape:
                    loss = f()
                assert set(tape.gradients(loss)) == ({"x"} if frozen else {"x", "w", "b"})


def test_sdpa_gradient_with_key_padding_mask():
    lengths = np.array([5, 3])
    mask = ag.Visible((lengths - 1)[:, None, None])  # each row's last real key
    for seed in range(10):
        q = make_param("q", (2, 2, 3, 4), seed=seed)
        k = make_param("k", (2, 2, 5, 4), seed=seed + 50)
        v = make_param("v", (2, 2, 5, 4), seed=seed + 90)
        proj = Tensor(np.linspace(-1, 1, 48).reshape(2, 2, 3, 4))

        def f():
            return reduce_sum(ag.mul(ag.sdpa(q, k, v, mask=mask), proj))

        assert finite_diff_check(f, [q, k, v], seed=seed, max_coords=80) < 1e-4
    with Tape() as tape:
        loss = f()
    grads = tape.gradients(loss)
    # the second row's padded keys receive no attention, hence no gradient
    assert not grads["k"][1, :, 3:].any() and not grads["v"][1, :, 3:].any()


def test_taped_linear_is_one_node():
    reg = ParamRegistry()
    lin = Linear(reg, "fc", 4, 3, np.random.default_rng(0))
    with Tape() as tape:
        lin(Tensor(np.ones((2, 5, 4))))
    assert len(tape.nodes) == 1


# The compositions the fused / in-place primitives replaced: their forwards
# must stay bitwise equal to these.

def ref_linear(x, w, b):
    return ag.add(ag.matmul(x, w), b).data


def ref_gelu(x):
    cdf = 0.5 * (1.0 + erf(x.data * (1.0 / np.sqrt(2.0))))
    return x.data * cdf


def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return (xc * inv) * gain.data + bias.data


shapes = st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 24))


@given(shapes, st.integers(1, 24), st.floats(0.01, 30.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_fused_forwards_bitwise_equal_old_compositions(shape, d_out, spread, seed):
    rng = np.random.default_rng(seed)
    b, l, d = shape
    x = Tensor(rng.normal(0, spread, (b, l, d)))
    w, bias, gain, shift = (Tensor(rng.normal(0, 1, s)) for s in [(d, d_out), (d_out,), (d,), (d,)])
    for xs in (x, Tensor(x.data[0])):  # 3-D and 2-D
        assert np.array_equal(ag.linear(xs, w, bias).data, ref_linear(xs, w, bias))
        assert np.array_equal(ag.gelu(xs).data, ref_gelu(xs))
        assert np.array_equal(ag.layer_norm(xs, gain, shift).data, ref_layer_norm(xs, gain, shift))

    lk = int(rng.integers(1, 9))
    q, k, v = (Tensor(rng.normal(0, spread, (b, 2, n, d))) for n in (l, lk, lk))
    lengths = rng.integers(1, lk + 1, b)
    for visible, mask in ((None, None),
                          (ag.Visible((lengths - 1)[:, None, None]), key_padding_mask(lengths, lk)),
                          (ag.Visible(np.arange(l)), np.triu(np.full((l, lk), ag.NEG_INF), k=1))):
        assert np.array_equal(ag.sdpa(q, k, v, mask=visible).data, ref_sdpa(q, k, v, mask).data)


def _readonly(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def test_no_primitive_writes_to_inputs_mask_or_incoming_gradient():
    rng = np.random.default_rng(5)

    def p(name, *shape):
        return Parameter(name, _readonly(rng.normal(0, 1, shape)))

    mask = ag.Visible(2)  # keys 0..2 of 4; its dense mask, built here, is read-only
    mask._dense = _readonly(mask.dense(4))
    cases = {
        "matmul": lambda: ag.matmul(p("a", 2, 3, 4), p("b", 4, 5)),
        "linear": lambda: ag.linear(p("x", 2, 3, 4), p("w", 4, 5), p("b", 5)),
        "add": lambda: ag.add(p("a", 3, 4), p("b", 4)),
        "mul": lambda: ag.mul(p("a", 3, 4), p("b", 3, 1)),
        "transpose": lambda: ag.transpose(p("a", 2, 3, 4), (0, 2, 1)),
        "reshape": lambda: ag.reshape(p("a", 3, 4), (2, 6)),
        "concat": lambda: ag.concat([p("a", 2, 3), p("b", 1, 3)]),
        "take": lambda: ag.take(p("a", 4, 3), [1, 1, 3]),
        "layer_norm": lambda: ag.layer_norm(p("x", 2, 3, 6), p("g", 6), p("b", 6)),
        "gelu": lambda: ag.gelu(p("x", 3, 4)),
        "cross_entropy": lambda: ag.cross_entropy(p("x", 3, 4), [0, 3, 1], mask=_readonly([1.0, 0.0, 2.0])),
        "sdpa": lambda: ag.sdpa(p("q", 2, 2, 3, 4), p("k", 2, 2, 4, 4), p("v", 2, 2, 4, 4), mask=mask),
        "reduce_mean": lambda: ag.reduce_mean(p("x", 3, 4), axis=0),
        "reduce_max": lambda: ag.reduce_max(p("x", 3, 4), axis=1),
        "l2_normalize": lambda: ag.l2_normalize(p("x", 3, 4)),
    }
    for name, op in cases.items():
        with Tape() as tape:
            out = op()
        (node,) = tape.nodes
        g = _readonly(rng.normal(0, 1, out.shape))
        first = node.vjp(g)  # a write to g, an input or the mask raises here
        second = node.vjp(g)  # saved state is unchanged by the first call
        assert all(np.array_equal(a, b) for a, b in zip(first, second)), name


def test_take_equals_onehot_matmul_bitwise():
    # the one-hot product take replaced is the reference: selection is exact
    rng = np.random.default_rng(11)
    table = rng.normal(0, 1, (17, 6))
    ids = rng.integers(0, 17, (3, 9))
    onehot = np.zeros(ids.shape + (17,))
    np.put_along_axis(onehot, ids[..., None], 1.0, axis=-1)
    assert np.array_equal(ag.take(Tensor(table), ids).data, onehot @ table)


def test_nan_check_raises():
    big = Tensor(np.array([1e308, 1e308]))
    with pytest.raises(FloatingPointError):
        ag.add(big, big)


def test_tape_does_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_no_tape_records_nothing():
    x = Parameter("x", np.ones(3))
    y = ag.mul(x, x)
    assert not y.requires_grad
    t = Tape()
    assert t.nodes == []


# The numpy method forms (``.sum``, ``.mean``, ``.max``, ``np.transpose``
# with ``np.argsort``, ``np.cumsum`` split points) that the primitives' ufunc
# reductions replaced: each primitive's forward and VJP must stay bitwise
# equal to these.  Each reference maps the input arrays and an output
# gradient ``g`` to (output, input gradients).

def _ref_unbroadcast(g, shape):
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def ref_add(a, b, g):
    return a + b, (_ref_unbroadcast(g, a.shape), _ref_unbroadcast(g, b.shape))


def ref_mul(a, b, g):
    return a * b, (_ref_unbroadcast(g * b, a.shape), _ref_unbroadcast(g * a, b.shape))


def ref_linear_vjp(x, w, b, g):
    g2 = g.reshape(-1, w.shape[1])
    return (x @ w + b,
            ((g2 @ w.T).reshape(x.shape), x.reshape(-1, w.shape[0]).T @ g2, g2.sum(axis=0)))


def ref_transpose(a, axes, g):
    inv = None if axes is None else tuple(np.argsort(axes))
    return np.transpose(a, axes), (np.transpose(g, inv),)


def ref_concat(arrays, axis, g):
    splits = np.cumsum([a.shape[axis] for a in arrays])[:-1]
    return (np.concatenate(arrays, axis=axis),
            tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis)))


def ref_layer_norm_vjp(x, gain, bias, g):
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = xhat * inv
    g_xhat = g * gain
    gx = inv * (g_xhat - g_xhat.mean(axis=-1, keepdims=True)
                - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True))
    return (xhat * gain + bias,
            (gx, _ref_unbroadcast(g * xhat, gain.shape), _ref_unbroadcast(g, bias.shape)))


def ref_cross_entropy(lg, tgt, m, g):
    mx = lg.max(axis=1, keepdims=True)
    e = np.exp(lg - mx)
    z = e.sum(axis=1, keepdims=True)
    nll = np.log(z[:, 0]) + mx[:, 0] - lg[np.arange(lg.shape[0]), tgt]
    nsel = m.sum()
    p = e / z
    p[np.arange(lg.shape[0]), tgt] -= 1.0
    return np.asarray((nll * m).sum() / nsel), (p * (m / nsel)[:, None] * g,)


def ref_reduce_mean(x, axis, g):
    n = x.size if axis is None else x.shape[axis]
    out = np.asarray(x.mean(axis=axis))
    ge = g / n
    if axis is not None:
        ge = np.expand_dims(ge, axis)
    return out, (np.broadcast_to(ge, x.shape).astype(np.float64),)


def ref_l2_normalize(x, g):
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True) + 1e-12)
    y = x / norm
    return y, ((g - y * (g * y).sum(axis=-1, keepdims=True)) / norm,)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def taped_node(op, *arrays):
    """(output, tape node) of ``op`` on trainable parameters holding ``arrays``."""
    params = [Parameter(f"p{i}", a) for i, a in enumerate(arrays)]
    with Tape() as tape:
        out = op(*params)
    (node,) = tape.nodes
    return out.data, node


def check_against_reference(op, ref, arrays, rng):
    out, node = taped_node(op, *arrays)
    g = rng.normal(0, 1, out.shape)  # 0-d for a scalar output
    ref_out, ref_grads = ref(*arrays, g)
    assert same_bits(out, ref_out)
    grads = node.vjp(g)
    assert len(grads) == len(ref_grads)
    assert all(same_bits(a, b) for a, b in zip(grads, ref_grads))


# length-1 axes are drawn often: they are where broadcasting and keepdims
# reductions differ from the general case
dims = st.lists(st.sampled_from([1, 1, 2, 3, 5]), min_size=1, max_size=3)


@given(dims, st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_rewritten_primitives_bitwise_equal_numpy_method_forms(shape, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(shape)
    x = rng.normal(0, 3, shape)
    ndim = len(shape)

    # broadcast partners: some axes cut to 1 and some leading axes dropped
    small = tuple(1 if rng.random() < 0.5 else s for s in shape)[int(rng.integers(0, ndim)):]
    y = rng.normal(0, 1, small)
    check_against_reference(ag.add, ref_add, (x, y), rng)
    check_against_reference(ag.mul, ref_mul, (y, x), rng)

    d_out = int(rng.integers(1, 5))
    w, b = rng.normal(0, 1, (shape[-1], d_out)), rng.normal(0, 1, d_out)
    if ndim >= 2:
        check_against_reference(ag.linear, ref_linear_vjp, (x, w, b), rng)

    axes = tuple(int(a) for a in rng.permutation(ndim))
    # an axis may be given negative; argsort on those gave a wrong inverse
    given_axes = tuple(a - ndim if rng.random() < 0.5 else a for a in axes)
    check_against_reference(lambda a: ag.transpose(a, given_axes),
                            lambda a, g: ref_transpose(a, axes, g), (x,), rng)
    check_against_reference(ag.transpose, lambda a, g: ref_transpose(a, None, g), (x,), rng)

    axis = int(rng.integers(0, ndim))
    parts = [rng.normal(0, 1, shape[:axis] + (n,) + shape[axis + 1:])
             for n in rng.integers(1, 4, int(rng.integers(1, 4)))]
    check_against_reference(lambda *ts: ag.concat(ts, axis=axis),
                            lambda *a: ref_concat(a[:-1], axis, a[-1]), parts, rng)

    gain, bias = rng.normal(0, 1, shape[-1]), rng.normal(0, 1, shape[-1])
    check_against_reference(ag.layer_norm, ref_layer_norm_vjp, (x, gain, bias), rng)
    check_against_reference(ag.l2_normalize, ref_l2_normalize, (x,), rng)

    for ax in (None, axis):  # axis None: a 0-d output and a 0-d gradient
        check_against_reference(lambda a: ag.reduce_mean(a, axis=ax),
                                lambda a, g: ref_reduce_mean(a, ax, g), (x,), rng)

    lg = x.reshape(-1, shape[-1])
    tgt = rng.integers(0, shape[-1], lg.shape[0])
    m = rng.integers(0, 3, lg.shape[0]).astype(np.float64)
    m[0] = 1.0
    check_against_reference(lambda a: ag.cross_entropy(a, tgt, mask=m),
                            lambda a, g: ref_cross_entropy(a, tgt, m, g), (lg,), rng)

    lead = shape[:-1][:2]
    lq, lk, dh = int(rng.integers(1, 5)), int(rng.integers(1, 5)), shape[-1]
    q, k, v = (rng.normal(0, 2, lead + (n, dh)) for n in (lq, lk, lk))
    causal = np.triu(np.full((lq, lk), ag.NEG_INF), k=1)
    for visible, mask in ((None, None), (ag.Visible(np.arange(lq)), causal)):
        check_against_reference(lambda *t: ag.sdpa(*t, mask=visible),
                                lambda *a: ref_sdpa_vjp(*a[:3], mask, a[3]), (q, k, v), rng)


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_head_split_and_merge_equal_reshape_transpose_compositions(b, length, heads, dh, seed):
    rng = np.random.default_rng(seed)
    rows = Parameter("x", rng.normal(0, 1, (b, length, heads * dh)))
    split_proj = Tensor(rng.normal(0, 1, (b, heads, length, dh)))
    merge_proj = Tensor(rng.normal(0, 1, (b, length, heads * dh)))

    def split_composed(x):
        return ag.transpose(ag.reshape(x, (b, length, heads, dh)), (0, 2, 1, 3))

    def merge_composed(x):
        return ag.reshape(ag.transpose(x, (0, 2, 1, 3)), (b, length, heads * dh))

    def run(split, merge):
        with Tape() as tape:
            heads_out = split(rows)
            rows_out = merge(heads_out)
            # a 0-d loss through both ops, with a distinct gradient into each
            loss = ag.add(reduce_sum(ag.mul(heads_out, split_proj)),
                          reduce_sum(ag.mul(rows_out, merge_proj)))
        return heads_out.data, rows_out.data, tape.gradients(loss)["x"], len(tape.nodes)

    fused = run(lambda x: ag.split_heads(x, heads), ag.merge_heads)
    composed = run(split_composed, merge_composed)
    assert all(same_bits(a, c) for a, c in zip(fused[:3], composed[:3]))
    assert fused[3] == composed[3] - 2  # one node each instead of two


# ---------------------------------------------------------------------------
# causal sdpa: a ``Visible`` description run as one tile against the
# materialized masks it replaced, the tiled run against the one-tile run


def one_tile(q, k, mask) -> bool:
    """Whether ``sdpa`` runs ``mask`` over these operands as one tile of every
    row over every key (``ag._tiles``)."""
    return ag._tiles(mask, q.shape[-2], k.shape[-2]) == [(slice(None), 0, k.shape[-2])]


def causal_case(rng, m, n=0, lengths=None, rows=None, q_batch=None, segments=None):
    """(q, k, v, description, materialized mask) of ``m`` query rows after
    ``n`` cached keys, over 2 heads of dh 4.  Given ``lengths``, batch row b's
    cached keys from ``lengths[b]`` on are padding, hidden as ``LmState``'s
    gap hides them; given ``segments`` (sizes summing to m), the rows are
    packed prompts, each hiding the prompts before it, as ``prefill``'s gap
    does.  The query rows are ``rows`` of the n + m when given.  The
    materialized mask is the one ``DecoderLM`` added before the description:
    the causal triangle plus extend's padded-decode mask or prefill's block
    mask."""
    b = 1 if lengths is None else len(lengths)
    lq = m if rows is None else len(rows)
    q = rng.normal(0, 2, (q_batch or b, 2, lq, 4))
    k, v = (rng.normal(0, 2, (b, 2, n + m, 4)) for _ in range(2))
    full = np.triu(np.full((n + m, n + m), -1e9), k=1)
    gap = None
    if lengths is not None:
        gap = (np.asarray(lengths)[:, None, None], n)
        pad = np.where(np.arange(n) < gap[0], 0.0, -1e9)[..., None, :]
        full = np.concatenate([pad, np.zeros((b, 1, 1, m))], axis=3) + full
    if segments is not None:
        seg = np.repeat(np.arange(len(segments)), segments)
        gap = (n, n + (np.cumsum(segments) - segments)[seg])
        block = np.zeros((n + m, n + m))
        block[n:, n:][seg[:, None] != seg[None, :]] = -1e9
        full = block + full
    if rows is None:
        return q, k, v, ag.Visible(n + np.arange(m), gap), full[..., n:, :]
    return q, k, v, ag.Visible(np.asarray(rows), gap), full[..., rows, :]


@given(st.integers(1, 9), st.integers(0, 4), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_causal_sdpa_below_the_threshold_is_the_materialized_triangle_bitwise(m, n, pad, sub, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, n + 1, 2) if pad and n else None
    rows = None
    if sub:
        rows = np.sort(rng.choice(n + m, int(rng.integers(1, n + m + 1)), replace=False))
    q, k, v, causal, full = causal_case(rng, m, n, lengths, rows)
    check_against_reference(lambda *t: ag.sdpa(*t, mask=causal),
                            lambda *a: ref_sdpa_vjp(*a[:3], full, a[3]), (q, k, v), rng)


def test_causal_sdpa_stays_dense_below_the_threshold_and_under_a_query_mask():
    """``_TILED_FROM - 1`` rows, and packed prompts (a gap per query row)
    over more, run as one tile and keep its bits."""
    rng = np.random.default_rng(3)
    m = ag._TILED_FROM + 5
    for q, k, v, causal, full in (causal_case(rng, ag._TILED_FROM - 1, 2),
                                  causal_case(rng, m, segments=[70, m - 70])):
        assert one_tile(q, k, causal)
        check_against_reference(lambda *t: ag.sdpa(*t, mask=causal),
                                lambda *a: ref_sdpa_vjp(*a[:3], full, a[3]), (q, k, v), rng)


@given(st.integers(0, 4), st.lists(st.integers(1, 70), min_size=1, max_size=4), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gap_sdpa_is_the_materialized_prefill_and_decode_masks_bitwise(n, sizes, packed, seed):
    """A description with a gap runs as one tile at any row count, and its
    output and VJP are bitwise those under the materialized mask it
    replaced: prefill's block mask over packed prompts, or extend's
    padded-decode mask.  Narrowed to the rows the LM's final block reads, it
    slices the dense mask already built and keeps its bits."""
    rng = np.random.default_rng(seed)
    m = sum(sizes)
    if packed:
        q, k, v, causal, full = causal_case(rng, m, n, segments=sizes)
        last = np.cumsum(sizes) - 1
    else:
        n += 1
        q, k, v, causal, full = causal_case(rng, m, n, lengths=rng.integers(1, n + 1, len(sizes)))
        last = np.array([m - 1])
    assert one_tile(q, k, causal)
    check_against_reference(lambda *t: ag.sdpa(*t, mask=causal),
                            lambda *a: ref_sdpa_vjp(*a[:3], full, a[3]), (q, k, v), rng)
    narrowed = causal.rows(last)
    assert same_bits(narrowed._dense, np.take(causal._dense, last, -2))
    assert one_tile(q[..., last, :], k, narrowed)
    check_against_reference(lambda *t: ag.sdpa(*t, mask=narrowed),
                            lambda *a: ref_sdpa_vjp(*a[:3], full[..., last, :], a[3]),
                            (q[..., last, :], k, v), rng)


# ---------------------------------------------------------------------------
# the Q-Former's and the text encoder's descriptions against the additive
# masks they replaced


@given(st.sampled_from(MODES), st.integers(0, 3), st.integers(0, 5), st.booleans(),
       st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_qformer_descriptions_are_the_mode_table_bitwise(mode, n_q, l_text, padded, b, shared,
                                                         seed):
    """Under each objective's ``_self_mask`` (with lengths and without, with
    no query row or no text row, and with one text shared by ``b`` grids),
    ``sdpa``'s output and VJP are bitwise those under the mode table, and so
    are they narrowed to the query rows, as the final matching block runs."""
    l_text = l_text if mode == "itc" else max(l_text, 1)  # itg and itm need text
    n_q = n_q if mode != "itm" and l_text else max(n_q, 1)  # itm needs grids
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, l_text + 1, 1 if shared else b) if padded and l_text else None
    visible, full = _self_mask(mode, n_q, lengths, l_text), mode_mask(mode, n_q, lengths, l_text)
    q, k, v = (rng.normal(0, 2, (b, 2, n_q + l_text, 4)) for _ in range(3))
    assert one_tile(q, k, visible)
    check_against_reference(lambda *t: ag.sdpa(*t, mask=visible),
                            lambda *a: ref_sdpa_vjp(*a[:3], full, a[3]), (q, k, v), rng)
    if n_q:
        rows = np.arange(n_q)
        assert one_tile(q[..., rows, :], k, visible.rows(rows))
        check_against_reference(lambda *t: ag.sdpa(*t, mask=visible.rows(rows)),
                                lambda *a: ref_sdpa_vjp(*a[:3], full[..., rows, :], a[3]),
                                (q[..., rows, :], k, v), rng)


@given(st.lists(st.integers(1, ag._TILED_FROM + 3), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_packed_text_description_is_the_block_diagonal_mask_bitwise(lengths, seed):
    """The text encoder's description of its packed rows (``pack_texts``)
    attends bitwise as the additive block-diagonal mask of its texts and
    rows' tails, and runs as one tile at ``_TILED_FROM`` rows or more."""
    rng = np.random.default_rng(seed)
    width = max(lengths)  # as TextEncoder.forward packs
    _, positions, visible = pack_texts(lengths, width)
    q, k, v = (rng.normal(0, 2, (positions.shape[0], 2, width, 4)) for _ in range(3))
    assert one_tile(q, k, visible)
    check_against_reference(lambda *t: ag.sdpa(*t, mask=visible),
                            lambda *a: ref_sdpa_vjp(*a[:3], packed_text_reference(lengths, width)[1],
                                                    a[3]),
                            (q, k, v), rng)


@pytest.mark.parametrize("mask", [np.zeros((3, 5)), key_padding_mask([4], 5), 0.0],
                         ids=["array", "key-padding", "scalar"])
def test_sdpa_refuses_an_additive_mask(mask):
    q, kv = Tensor(np.ones((3, 4))), Tensor(np.ones((5, 4)))
    with pytest.raises(TypeError, match="Visible"):
        ag.sdpa(q, kv, kv, mask=mask)


TILE = 4  # the tiled cases below run with tiles of 4 rows, tiled from 1 row up

# the padded and packed cases have a gap, so they run as one tile
TILED_CASES = {
    "2T-1": dict(m=2 * TILE - 1),
    "2T": dict(m=2 * TILE),
    "2T+1": dict(m=2 * TILE + 1),
    "ragged": dict(m=3 * TILE - 1, n=2),
    "cached-offset": dict(m=2 * TILE + 1, n=5),
    "key-padding": dict(m=3 * TILE, n=7, lengths=[7, 3]),
    "final-rows": dict(m=3 * TILE + 2, n=3, lengths=[3, 1],
                       rows=[0, 2, 3, 5, 6, 7, 8, 10, 13, 16]),
    "query-batch-1": dict(m=2 * TILE + 3, n=4, lengths=[4, 2], q_batch=1),
    "packed": dict(m=3 * TILE + 1, n=2, segments=[5, 1, 3 * TILE - 5]),
}


def dense_and_tiled(monkeypatch, q, k, v, causal, tile=TILE):
    """(output, VJP) of ``sdpa`` as one tile, then with tiling from one row
    up, under the same output gradient; fails unless the second run had more
    than one tile, or, for a description with a gap, unless it had one."""
    monkeypatch.setattr(ag, "_TILE", tile)
    res = []
    for tiled_from in (10**9, 1):
        monkeypatch.setattr(ag, "_TILED_FROM", tiled_from)
        out, node = taped_node(lambda *t: ag.sdpa(*t, mask=causal), q, k, v)
        g = np.random.default_rng(9).normal(0, 1, out.shape)
        res.append((out, node.vjp(g)))
        assert one_tile(q, k, causal) == (tiled_from > 1 or causal.gap is not None)
    return res


@pytest.mark.parametrize("case", TILED_CASES)
def test_tiled_causal_sdpa_matches_the_dense_path(monkeypatch, case):
    q, k, v, causal, full = causal_case(np.random.default_rng(4), **TILED_CASES[case])
    (dense, dense_grads), (tiled, tiled_grads) = dense_and_tiled(monkeypatch, q, k, v, causal)
    assert np.abs(tiled - dense).max() < 1e-12
    for a, b in zip(tiled_grads, dense_grads):
        assert a.shape == b.shape and np.abs(a - b).max() < 1e-12
    # no key hidden from every row gets gradient
    hidden = np.logical_and.reduce(full < 0, axis=-2).reshape(-1, k.shape[-2])
    for gk, gv, h in zip(*tiled_grads[1:], np.broadcast_to(hidden, (k.shape[0], k.shape[-2]))):
        assert not gk[:, h].any() and not gv[:, h].any()


def test_tiled_causal_sdpa_matches_the_dense_path_at_the_lm_tile_size(monkeypatch):
    # a 365-row reviewer-length row after 3 cached keys, at the module's tile
    q, k, v, causal, _ = causal_case(np.random.default_rng(5), 365, 3)
    (dense, dense_grads), (tiled, tiled_grads) = dense_and_tiled(monkeypatch, q, k, v, causal,
                                                                 ag._TILE)
    assert np.abs(tiled - dense).max() < 1e-12
    assert all(np.abs(a - b).max() < 1e-12 for a, b in zip(tiled_grads, dense_grads))


@given(st.integers(1, 3 * ag._TILE), st.integers(0, 5), st.booleans(),
       st.sampled_from([TILE, ag._TILE]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tiles_partition_the_rows_each_up_to_its_last_visible_column(m, n0, sub, tile, seed):
    """``_tiles`` over a 1-D description without a gap: from ``_TILED_FROM``
    rows up, tiles of at most ``_TILE`` rows that partition the rows in
    order, each over the key columns up to its rows' last visible one and
    seen by all of them below ``lo``; one tile of every row over every key
    otherwise, and for any other description."""
    rng = np.random.default_rng(seed)
    n = n0 + m
    cols = n0 + np.arange(m)
    if sub:  # rows narrowed as the LM's final block narrows them
        cols = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
        m = len(cols)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ag, "_TILE", tile)
        patch.setattr(ag, "_TILED_FROM", 2 * tile)
        tiles = ag._tiles(ag.Visible(cols), m, n)
        whole = [(slice(None), 0, n)]
        for other in (None, ag.Visible(cols, (0, 1)), ag.Visible(cols[:, None, None])):
            assert ag._tiles(other, m, n) == whole
    assert [i for rows, _, _ in tiles for i in range(m)[rows]] == list(range(m))
    if m < 2 * tile:
        assert tiles == whole
        return
    for rows, lo, hi in tiles:
        assert 1 <= len(range(m)[rows]) <= tile
        assert lo == cols[rows].min() and hi == cols[rows].max() + 1 <= n


# SHA-256 over the output and q/k/v gradients of the taped causal cases in
# ``test_tiled_causal_sdpa_bits_are_pinned``, all on the tiled path at the
# module's tile.  A rewrite of ``sdpa`` must keep it green without editing it.
GOLDEN_TILED_SDPA_DIGEST = "fc8f2b3e48f34cf40cb443f59cb16c799663d74c97357c55286bb11ca243d22b"


def test_tiled_causal_sdpa_bits_are_pinned():
    # 365 rows, 200 rows after 3 cached keys, and the 136 final-block rows
    # of a 137-row pass
    rng = np.random.default_rng(12)
    h = hashlib.sha256()
    for m, n, rows in ((365, 0, None), (200, 3, None), (137, 0, np.arange(136))):
        q, k, v, causal, _ = causal_case(rng, m, n, rows=rows)
        out, node = taped_node(lambda *t: ag.sdpa(*t, mask=causal), q, k, v)
        for a in (out, *node.vjp(rng.normal(0, 1, out.shape))):
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == GOLDEN_TILED_SDPA_DIGEST


@pytest.mark.parametrize("case", ["ragged", "key-padding", "final-rows", "packed"])
def test_tiled_causal_sdpa_gradient(monkeypatch, case):
    monkeypatch.setattr(ag, "_TILE", TILE)
    monkeypatch.setattr(ag, "_TILED_FROM", 1)
    arrays = causal_case(np.random.default_rng(6), **TILED_CASES[case])
    q, k, v = (Parameter(name, a) for name, a in zip("qkv", arrays[:3]))
    causal = arrays[3]
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
    proj = Tensor(np.random.default_rng(7).normal(0, 1, lead + (q.shape[-2], 4)))

    def f():
        return reduce_sum(ag.mul(ag.sdpa(q, k, v, mask=causal), proj))

    assert finite_diff_check(f, [q, k, v], max_coords=60) < 1e-4


def test_tiled_causal_sdpa_writes_no_input_and_repeats_bitwise(monkeypatch):
    monkeypatch.setattr(ag, "_TILE", TILE)
    monkeypatch.setattr(ag, "_TILED_FROM", 1)
    q, k, v, causal, _ = causal_case(np.random.default_rng(8), **TILED_CASES["ragged"])
    q, k, v = (_readonly(a) for a in (q, k, v))
    runs = []
    for _ in range(2):
        out, node = taped_node(lambda *t: ag.sdpa(*t, mask=causal), q, k, v)
        g = _readonly(np.linspace(-1, 1, out.size).reshape(out.shape))
        runs.append((out, *node.vjp(g), *node.vjp(g)))
    assert all(same_bits(a, b) for a, b in zip(*runs))
    assert all(same_bits(a, b) for a, b in zip(runs[0][1:4], runs[0][4:]))
