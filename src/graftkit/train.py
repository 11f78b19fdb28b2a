"""The loop of every training stage.

A stage hands ``run`` its optimizer, its batches and ``step(batch) ->
(loss terms, gradients)``, the terms a dict of named floats.  ``run`` takes
the ``frozen`` digests; each step then draws a batch, calls ``step``,
refuses a non-finite term before any parameter is written, steps the
optimizer, records the terms, evaluates and selects on an eval step, and
logs every 200th step, each eval and the last; after the last step it
checks the frozen digests.
"""

from __future__ import annotations

import numpy as np


def sample(ids, batch_size: int, rng):
    """Uniform draws by ``rng`` of ``min(batch_size, len(ids))`` distinct ``ids``, forever."""
    while True:
        yield [ids[int(i)] for i in rng.choice(len(ids), min(batch_size, len(ids)), replace=False)]


def check_steps(cfg, *fields, least: int) -> None:
    """Refuse ``cfg`` unless each of its ``fields`` is at least ``least``."""
    for name in fields:
        if (value := getattr(cfg, name)) < least:
            raise ValueError(f"{type(cfg).__name__}.{name} must be >= {least}, got {value}")


def _fmt(values: dict) -> str:
    return " ".join(f"{k} {v:.4f}" for k, v in values.items())


def run(name: str, opt, batches, step, steps: int, log, frozen=(), evaluate=None,
        eval_every: int = 0, select=None) -> tuple[list[dict], dict]:
    """(history, selected) of stage ``name``: ``{"step": i, **terms}`` per
    step, and per name -> key of ``select`` the metrics of ``evaluate()``
    (every ``eval_every`` steps and at the last) with their step and the
    optimizer's parameter values at the eval of least key, the earliest on
    a tie.  ``frozen`` holds (what, digest function) pairs."""
    before = [digest() for _, digest in frozen]
    history, best = [], {}
    for i in range(steps):
        terms, grads = step(next(batches))
        if not np.all(np.isfinite(list(terms.values()))):
            raise FloatingPointError(f"{name} step {i}: non-finite loss terms {terms}")
        opt.step(grads)
        history.append({"step": i, **terms})
        metrics = evaluate() if evaluate and ((i + 1) % eval_every == 0 or i == steps - 1) else {}
        for key_name, key in select.items() if metrics else ():
            if key_name not in best or key(metrics) < best[key_name][0]:
                best[key_name] = (key(metrics), dict(metrics, step=i),
                                  {p.name: p.data.copy() for p in opt.params})
        if log and (i % 200 == 0 or metrics or i == steps - 1):
            log(f"{name} step {i} {_fmt(terms)}" + (f" eval {_fmt(metrics)}" if metrics else ""))
    for (what, digest), was in zip(frozen, before):
        if digest() != was:
            raise RuntimeError(f"frozen contract violated: {what} changed during {name}")
    return history, {k: (chosen, values) for k, (_, chosen, values) in best.items()}
