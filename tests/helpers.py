"""Shared test helpers: the finite-difference gradient oracle, the one-tape
phase-1 step, and a corpus prevalence fixture."""

import numpy as np

from graftkit import autograd as ag
from graftkit import templates as T
from graftkit.autograd import Parameter, Tape
from graftkit.qformer import phase1_losses

# a corpus with two findings only, each near half the studies
TWO_FINDING_PREVALENCE = {k: 0.0 for k in T.KINDS} | {"effusion": 0.55, "cardiomegaly": 0.45}


def finite_diff_check(f, params, step: float = 1e-5, max_coords: int = 40, seed: int = 0) -> float:
    """Compare ``Tape.gradients`` against central differences on sampled coordinates.

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


def phase1_step_oracle(model, batch) -> tuple[float, dict[str, np.ndarray]]:
    """The phase-1 step as one graph: (ITC + ITG) + ITM on one tape over a
    batch ``(grids, cls batch, itg batch, mismatch)``, and its gradients."""
    grids, cls_batch, itg_batch, mismatch = batch
    with Tape() as tape:
        l_itc, l_itg, l_itm = phase1_losses(model, grids, model.query_projections(grids),
                                            cls_batch, itg_batch, mismatch)
        total = ag.add(ag.add(l_itc, l_itg), l_itm)
    return float(total.data), tape.gradients(total)
