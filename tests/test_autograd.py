import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graftkit.autograd as ag
from graftkit.autograd import Parameter, Tape, Tensor, finite_diff_check


def make_param(name, shape, seed=0, frozen=False):
    rng = np.random.default_rng(seed)
    return Parameter(name, rng.normal(0, 1, shape), frozen=frozen)


def test_softmax_symmetry_and_values():
    assert np.allclose(ag.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-12)
    out = ag.softmax(Tensor([np.log(2.0), 0.0])).data
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert np.allclose(ag.softmax(Tensor([5.0, 5.0, 5.0])).data, [1 / 3] * 3, atol=1e-12)


def test_softmax_empty_errors():
    with pytest.raises(ValueError):
        ag.softmax(Tensor(np.zeros(0)))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-30, 30))
@settings(max_examples=60, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    a = ag.softmax(Tensor(logits)).data
    assert abs(a.sum() - 1.0) < 1e-9
    b = ag.softmax(Tensor(np.asarray(logits) + shift)).data
    assert np.all(np.abs(a - b) < 1e-12)


def test_softmax_order_preserving():
    logits = np.array([0.3, -1.2, 2.0, 0.3001])
    probs = ag.softmax(Tensor(logits)).data
    assert np.array_equal(np.argsort(probs), np.argsort(logits))


def test_cross_entropy_values():
    uniform = Tensor(np.zeros(4))
    for t in range(4):
        assert abs(ag.cross_entropy(uniform, t).item() - np.log(4)) < 1e-12
    assert abs(ag.cross_entropy(Tensor([1.0, 0.0]), 0).item() - np.log(1 + np.exp(-1))) < 1e-12
    assert ag.cross_entropy(Tensor([100.0, 0.0]), 0).item() < 1e-9
    assert ag.cross_entropy(Tensor([100.0, 0.0]), 0).item() >= 0.0


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


def test_backward_softmax_slope():
    # d/dx softmax([x, 0])[0] at x=0 is 0.25
    x = Parameter("x", np.zeros(1))
    with Tape() as tape:
        logits = ag.concat([x, Tensor(np.zeros(1))])
        loss = ag.reduce_sum(ag.mul(ag.softmax(logits), Tensor([1.0, 0.0])))
    grads = tape.gradients(loss)
    assert abs(grads["x"][0] - 0.25) < 1e-12


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


def test_backward_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(7)
        a = Parameter("a", rng.normal(0, 1, (4, 5)))
        b = Parameter("b", rng.normal(0, 1, (5, 3)))
        with Tape() as tape:
            h = ag.gelu(ag.matmul(a, b))
            loss = ag.cross_entropy(h, [0, 2, 1, 0])
        g = tape.gradients(loss)
        return loss.item(), g["a"].tobytes(), g["b"].tobytes()

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
    ("softmax", lambda p: ag.reduce_sum(ag.mul(ag.softmax(p), Tensor(np.linspace(0, 1, 12).reshape(3, 4))))),
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
    assert y.grad is None
    t = Tape()
    assert t.nodes == []
