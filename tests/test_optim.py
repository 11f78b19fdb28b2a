import numpy as np
import pytest

from graftkit.autograd import Parameter
from graftkit.optim import Adam, FrozenParameterError, Lars, SgdMomentum


def params_one(val=1.0, shape=(4,), name="w"):
    return Parameter(name, np.full(shape, val))


def test_adam_first_step_magnitude():
    p = params_one(0.0)
    opt = Adam([p], lr=0.01)
    opt.step({"w": np.ones(4)})
    # bias correction makes m_hat / sqrt(v_hat) = 1 up to eps on step 1
    assert np.allclose(p.data, -0.01, atol=1e-6)


def test_adam_zero_grad_keeps_params():
    p = params_one(2.5)
    opt = Adam([p], lr=0.1)
    for _ in range(10):
        opt.step({"w": np.zeros(4)})
    assert np.all(p.data == 2.5)


def test_sgd_momentum_zero_equals_plain_sgd():
    p1 = params_one(1.0)
    p2 = params_one(1.0)
    opt1 = SgdMomentum([p1], lr=0.1, momentum=0.0)
    g = np.array([1.0, -2.0, 0.5, 0.0])
    for _ in range(3):
        opt1.step({"w": g})
        p2.data -= 0.1 * g
    assert np.allclose(p1.data, p2.data, atol=0)


def test_sgd_momentum_accumulates():
    p = params_one(0.0, shape=(1,))
    opt = SgdMomentum([p], lr=1.0, momentum=0.5)
    opt.step({"w": np.ones(1)})   # v=1, p=-1
    opt.step({"w": np.ones(1)})   # v=1.5, p=-2.5
    assert np.allclose(p.data, [-2.5])


def test_lars_local_lr_formula():
    # documented ratio: trust * ||w|| / ||g||, trust 0.001
    assert Lars.local_lr(1.0, 2.0) == pytest.approx(5e-4)
    assert Lars.local_lr(3.0, 4.0) == pytest.approx(0.001 * 3.0 / 4.0)
    assert Lars.local_lr(0.0, 2.0) == 1.0
    assert Lars.local_lr(1.0, 0.0) == 1.0


def test_lars_gradient_scale_invariance():
    # with fresh momentum, the trust-scaled step depends on g only through
    # g / ||g||
    rng = np.random.default_rng(0)
    g = rng.normal(0, 1, (3, 3))
    updates = []
    for scale in (1.0, 10.0):
        p = Parameter("w", np.full((3, 3), 0.7))
        opt = Lars([p], lr=0.5)
        opt.step({"w": g * scale})
        updates.append(p.data - 0.7)
    assert np.allclose(updates[0], updates[1], atol=1e-12)


def test_lars_zero_weight_fallback():
    p = Parameter("w", np.zeros(3))
    opt = Lars([p], lr=0.1)
    opt.step({"w": np.ones(3)})
    # local_lr falls back to 1 and momentum is fresh -> plain sgd step
    assert np.allclose(p.data, -0.1)


def test_frozen_rejected_not_skipped():
    p = params_one()
    p.freeze()
    for opt in (SgdMomentum([p], lr=0.1), Adam([p], lr=0.1), Lars([p], lr=0.1)):
        with pytest.raises(FrozenParameterError):
            opt.step({"w": np.ones(4)})


def test_deterministic_given_state():
    def run():
        p = params_one(1.0)
        opt = Adam([p], lr=0.05)
        rng = np.random.default_rng(5)
        for _ in range(20):
            opt.step({"w": rng.normal(0, 1, 4)})
        return p.data.tobytes()

    assert run() == run()



def test_a_step_bumps_the_version_of_each_parameter_it_writes():
    for make in (lambda ps: SgdMomentum(ps, lr=0.1, momentum=0.9),
                 lambda ps: Adam(ps, lr=0.1), lambda ps: Lars(ps, lr=0.1)):
        stepped, skipped = params_one(1.0, name="a"), params_one(1.0, name="b")
        opt = make([stepped, skipped])
        opt.step({"a": np.ones(4)})  # no gradient for "b": not written
        opt.step({"a": np.ones(4)})
        assert (stepped.version, skipped.version) == (2, 0)
