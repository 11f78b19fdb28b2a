"""Optimizers: SGD with momentum, Adam, and LARS.

All are deterministic given (params, grads, state) and refuse to touch
frozen parameters: attempting a step on one raises instead of silently
skipping, so a frozen graft cannot drift unnoticed.
"""

from __future__ import annotations

import numpy as np

from .autograd import Parameter


class FrozenParameterError(RuntimeError):
    pass


class _Optimizer:
    def __init__(self, params, lr: float):
        self.params: list[Parameter] = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("optimizer received duplicate parameter names")
        self.lr = float(lr)
        self.t = 0

    def _check(self, grads: dict[str, np.ndarray]) -> None:
        for p in self.params:
            if p.frozen:
                raise FrozenParameterError(f"optimizer step on frozen parameter {p.name!r}")

    def step(self, grads: dict[str, np.ndarray]) -> None:
        raise NotImplementedError


class SgdMomentum(_Optimizer):
    """Heavy-ball momentum: v = m*v + g; p -= lr * v."""

    def __init__(self, params, lr: float, momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, grads):
        self._check(grads)
        self.t += 1
        for p in self.params:
            g = grads.get(p.name)
            if g is None:
                continue
            v = self.v[p.name]
            v *= self.momentum
            v += g
            p.write(self.lr * v, np.subtract)


class Adam(_Optimizer):
    """Bias-corrected Adam.  The default beta1 with ``beta2`` and ``eps``,
    (0.98, 0.999) and 1e-8, is the paper's setting for both adapter phases."""

    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float, beta1: float = 0.98):
        super().__init__(params, lr)
        self.beta1 = float(beta1)
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, grads):
        self._check(grads)
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = grads.get(p.name)
            if g is None:
                continue
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.write(self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps), np.subtract)


class Lars(_Optimizer):
    """Layer-wise adaptive rate scaling; one layer = one parameter tensor.

    local_lr = trust * ||w|| / ||g||, falling back to 1 when either norm is
    zero; the trust-scaled gradient then goes through heavy-ball momentum.
    No weight decay.
    """

    momentum = 0.9
    trust = 0.001

    def __init__(self, params, lr: float):
        super().__init__(params, lr)
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    @classmethod
    def local_lr(cls, w_norm: float, g_norm: float) -> float:
        if w_norm == 0.0 or g_norm == 0.0:
            return 1.0
        return cls.trust * w_norm / g_norm

    def step(self, grads):
        self._check(grads)
        self.t += 1
        for p in self.params:
            g = grads.get(p.name)
            if g is None:
                continue
            w_norm = float(np.linalg.norm(p.data))
            g_norm = float(np.linalg.norm(g))
            v = self.v[p.name]
            v *= self.momentum
            v += self.local_lr(w_norm, g_norm) * g
            p.write(self.lr * v, np.subtract)

