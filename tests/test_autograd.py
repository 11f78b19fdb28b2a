import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

import graftkit.autograd as ag
from graftkit.autograd import Parameter, Tape, Tensor
from graftkit.nn import Linear
from graftkit.params import ParamRegistry
from helpers import finite_diff_check


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
        loss = ag.reduce_sum(ag.mul(x, x))
    grads = tape.gradients(loss)
    assert np.allclose(grads["x"], [6.0])


def test_backward_frozen_only_graph_is_empty():
    w = Parameter("w", np.ones(3), frozen=True)
    with Tape() as tape:
        loss = ag.reduce_sum(ag.mul(w, w))
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
        y = ag.reduce_sum(ag.mul(x, x), axis=1)
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
        return ag.reduce_sum(ag.mul(x, ag.matmul(Tensor(q), x)))

    assert finite_diff_check(f, [x]) < 1e-8


def test_finite_diff_excludes_frozen():
    x = Parameter("x", np.ones(2))
    w = Parameter("w", np.full(2, 2.0), frozen=True)

    def f():
        return ag.reduce_sum(ag.mul(x, w))

    # only x is compared; a frozen coordinate never enters the max
    assert finite_diff_check(f, [x, w]) < 1e-8


PRIMS = [
    ("matmul", lambda p: ag.reduce_sum(ag.matmul(p, Tensor(np.linspace(-1, 1, 12).reshape(4, 3))))),
    ("add", lambda p: ag.reduce_sum(ag.add(p, Tensor(np.ones((3, 4)))))),
    ("mul", lambda p: ag.reduce_sum(ag.mul(p, p))),
    ("transpose", lambda p: ag.reduce_sum(ag.mul(ag.transpose(p), ag.transpose(p)))),
    ("reshape", lambda p: ag.reduce_sum(ag.mul(ag.reshape(p, (4, 3)), Tensor(np.ones((4, 3)))))),
    ("gelu", lambda p: ag.reduce_sum(ag.gelu(p))),
    ("mean", lambda p: ag.reduce_mean(p)),
    ("max", lambda p: ag.reduce_sum(ag.reduce_max(p, axis=1))),
    ("l2norm", lambda p: ag.reduce_sum(ag.mul(ag.l2_normalize(p), Tensor(np.linspace(0.1, 1, 12).reshape(3, 4))))),
    # repeated ids accumulate in the scatter-add VJP
    ("take_rows", lambda p: ag.reduce_sum(ag.mul(ag.take(p, [2, 0, 2, 2]), Tensor(np.linspace(-1, 1, 16).reshape(4, 4))))),
    ("take_cols", lambda p: ag.reduce_sum(ag.mul(ag.take(p, np.arange(1, 4), axis=1), Tensor(np.linspace(0, 1, 9).reshape(3, 3))))),
    ("take_scalar", lambda p: ag.reduce_sum(ag.mul(ag.take(p, 1, axis=1), Tensor([0.5, -1.0, 2.0])))),
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
            return ag.reduce_sum(ag.mul(ag.layer_norm(x, g, b), Tensor(np.linspace(-1, 1, 12).reshape(2, 6))))

        assert finite_diff_check(f, [x, g, b], seed=seed) < 1e-4


def test_sdpa_gradient_and_mask():
    for seed in range(20):
        q = make_param("q", (3, 4), seed=seed)
        k = make_param("k", (5, 4), seed=seed + 50)
        v = make_param("v", (5, 4), seed=seed + 90)
        mask = np.zeros((3, 5))
        mask[:, 4] = -1e9

        def f():
            return ag.reduce_sum(ag.mul(ag.sdpa(q, k, v, mask=mask), Tensor(np.linspace(0, 1, 12).reshape(3, 4))))

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
        return ag.reduce_sum(ag.mul(ag.concat([a, b], axis=0), Tensor(np.linspace(0, 2, 18).reshape(6, 3))))

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
                    return ag.reduce_sum(ag.mul(ag.linear(x, w, b), proj))

                assert finite_diff_check(f, [x, w, b], seed=seed) < 1e-6
                with Tape() as tape:
                    loss = f()
                assert set(tape.gradients(loss)) == ({"x"} if frozen else {"x", "w", "b"})


def test_sdpa_gradient_with_key_padding_mask():
    lengths = np.array([5, 3])
    mask = np.where(np.arange(5)[None, :] < lengths[:, None], 0.0, -1e9)[:, None, None, :]  # (B, 1, 1, L)
    for seed in range(10):
        q = make_param("q", (2, 2, 3, 4), seed=seed)
        k = make_param("k", (2, 2, 5, 4), seed=seed + 50)
        v = make_param("v", (2, 2, 5, 4), seed=seed + 90)
        proj = Tensor(np.linspace(-1, 1, 48).reshape(2, 2, 3, 4))

        def f():
            return ag.reduce_sum(ag.mul(ag.sdpa(q, k, v, mask=mask), proj))

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


def ref_sdpa(q, k, v, mask):
    att_logits = np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        att_logits = att_logits + mask
    att_logits = att_logits - att_logits.max(axis=-1, keepdims=True)
    e = np.exp(att_logits)
    return np.matmul(e / e.sum(axis=-1, keepdims=True), v.data)


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
    pad = np.where(np.arange(lk)[None, :] < rng.integers(1, lk + 1, b)[:, None], 0.0, -1e9)
    for mask in (None, pad[:, None, None, :], np.triu(np.full((l, lk), -1e9), k=1)):
        assert np.array_equal(ag.sdpa(q, k, v, mask=mask).data, ref_sdpa(q, k, v, mask))


def _readonly(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def test_no_primitive_writes_to_inputs_mask_or_incoming_gradient():
    rng = np.random.default_rng(5)

    def p(name, *shape):
        return Parameter(name, _readonly(rng.normal(0, 1, shape)))

    mask = _readonly(np.where(np.arange(4) < 3, 0.0, -1e9)[None, None, None, :])
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
        "reduce_sum": lambda: ag.reduce_sum(p("x", 3, 4), axis=1),
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
