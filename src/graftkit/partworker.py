"""A second process for computations that split into independent parts.

A step whose parts exchange no activations is computed in two processes:
this one claims parts from the front of a shared counter, a forked worker
from the back, each until none is left.  A training step's loss is a sum
of parts (rows of an LM batch; phase 1's three objectives), and their
gradients are added in part order.  A forward-only step's parts (slices of
the matching head's rerank rows) each return a value and no gradients.
Each part is the same function on the same arrays whoever computes it, and
values and sums are kept in part order, so the bits depend neither on
which process computed which part nor on the core count.

A kind of step (``PartKind``) names a part function.  Each kind has one
worker, forked on the first step that needs it and reused for the life of
the process; the fork copies the caller's model, and the worker computes
on that copy, given the caller's weights before each step.  It is forked
again when the model's config or parameter layout (names, shapes, dtypes,
frozen flags) change.  Forking one per training call instead cost about a
fifth of LM pretraining throughput on a 2-core VM.

Shared memory, not the pipe: the weights go to the worker and its
gradients come back through arrays in an anonymous shared mapping made
before the fork, and the pipe carries only the step's inputs and the
reply.  Pickling the LM's 4 MB of weights and of gradients through the
pipe cost 4-140 ms a step on a 2-core VM, varying with how promptly each
process was woken for every 64 KB the pipe holds.

Fork, not spawn: a spawned child re-imports the parent's ``__main__``,
which a script that trains at top level without a main guard does not
survive, while a forked child needs no import and runs only numpy on what
the pipe and the shared memory bring.  The worker is a daemon, so the
interpreter's exit stops it.

The worker's share stays under half: the two cores' speeds drift apart by
10-80% from step to step on a 2-core VM, and an even split makes every step
wait for the slower one, while the benchmark's speed probe times only this
process's core.  Claiming from the front, this process computes at least
half of the parts unless the worker's core runs at under half its speed,
so a step's time follows the core that is probed.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import threading
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class PartKind:
    """One kind of split step.

    ``part(model, batch, i)`` returns part i's (value, gradients by
    parameter name), computed here on the caller's model and in the worker
    on its forked copy of it, whose weights are the caller's at each step.
    A training part's value is its loss share; a forward-only part returns
    its output as the value and no gradients (``{}``).  The value goes
    through the pipe, so it should be small.  A step has at most
    ``max_parts`` parts."""

    name: str
    part: Callable
    max_parts: int


def _layout(model) -> tuple:
    """The name, shape, dtype and frozen flag of each of ``model.params()``,
    in order: a parameter frozen after the fork must take no gradient in the
    worker either."""
    return tuple((p.name, p.data.shape, p.data.dtype.str, p.frozen) for p in model.params())


def _shared_arrays(layout, copies: int) -> list[dict[str, np.ndarray]]:
    """``copies`` sets of arrays of the parameter ``layout``, in one
    anonymous shared mapping: made before a fork, the child sees the same
    pages.  A page is backed by memory only once written."""
    specs = [(name, shape, np.dtype(dtype)) for name, shape, dtype, _ in layout]
    sizes = [-(-int(np.prod(shape)) * dtype.itemsize // 64) * 64 for _, shape, dtype in specs]
    buf = mmap.mmap(-1, max(1, copies * sum(sizes)))  # MAP_SHARED by default
    offset, out = 0, []
    for _ in range(copies):
        out.append({})
        for (name, shape, dtype), size in zip(specs, sizes):
            out[-1][name] = np.ndarray(shape, dtype, buffer=buf, offset=offset)
            offset += size
    return out


class _PartCounter:
    """A two-ended counter over one step's parts, in an anonymous shared
    mapping guarded by a lock, both made before the fork: this process takes
    parts from the front, the worker from the back, until none is left."""

    def __init__(self, ctx):
        self.lock = ctx.Lock()
        self.ends = np.ndarray(2, np.int64, buffer=mmap.mmap(-1, 16))

    def reset(self, n: int) -> None:
        with self.lock:
            self.ends[:] = 0, n

    def claim(self, back: bool) -> int | None:
        """The first (or last) unclaimed part, or None when none is left."""
        with self.lock:
            lo, hi = int(self.ends[0]), int(self.ends[1])
            if lo >= hi:
                return None
            if back:
                self.ends[1] = hi - 1
                return hi - 1
            self.ends[0] = lo + 1
            return lo

    def close(self) -> None:
        """Leave nothing to claim, so that the other process stops."""
        with self.lock:
            self.ends[1] = self.ends[0]


def _worker_main(conn, inherited, kind: PartKind, model, weights, slots, counter) -> None:
    """Serve steps until the parent's end of the pipe closes.

    A request is a step's ``batch``.  ``model``, the fork's copy of the
    parent's, is given the weights in ``weights``; then parts are claimed
    from the back of ``counter`` until none is left, and part i's gradients
    written to ``slots[i]``, memory shared with the parent.  The reply names
    each part computed here, with its value and the names of its
    gradients.  A part that raises closes ``counter``, so that the parent
    stops too.

    The fork copied the parent's ends of every worker's pipe, this one's
    included (``inherited``); closing them here makes the parent's exit,
    even by SIGKILL, an ``EOFError`` on the next ``recv`` of each worker.
    Ctrl-C is left to the parent, which drops the worker when interrupted.
    """
    for parent_end in inherited:
        parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            batch = conn.recv()
        except (EOFError, OSError):  # the parent is gone
            return
        try:
            for p in model.params():
                p.write(weights[p.name])
            done = []
            while (i := counter.claim(back=True)) is not None:
                value, grads = kind.part(model, batch, i)
                for name, g in grads.items():
                    slots[i][name][...] = g
                done.append((i, value, tuple(grads)))
            reply = ("ok", done)
        except Exception as exc:  # the parent re-raises it
            counter.close()
            reply = ("err", exc, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


class _PartWorker:
    """A forked process that computes parts of each step of one ``kind``
    on its copy of ``model``, claiming them from the back of ``counter``
    while the parent claims from the front.  Its shared memory holds one
    weight-sized set for the weights and one per part (``1 +
    kind.max_parts`` sets), of which only the gradients of the parts it
    computes are written: a page is backed by memory only once written, so
    a forward-only kind's part sets cost none."""

    def __init__(self, kind: PartKind, model):
        self.kind, self.key = kind, (model.cfg, _layout(model))
        self.weights, *self.slots = _shared_arrays(self.key[1], 1 + kind.max_parts)
        ctx = multiprocessing.get_context("fork")
        self.counter = _PartCounter(ctx)
        self.conn, child_end = ctx.Pipe()
        inherited = [self.conn, *(w.conn for w in _workers.values())]
        self.proc = ctx.Process(target=_worker_main,
                                args=(child_end, inherited, kind, model, self.weights,
                                      self.slots, self.counter),
                                name=f"graftkit-{kind.name}-part", daemon=True)
        self.proc.start()
        child_end.close()  # so that a dead worker is an EOFError here, not a hang
        self.owner = os.getpid()

    def submit(self, model, batch, n_parts: int) -> None:
        """Write ``model``'s weights to shared memory, open the counter on
        ``n_parts`` parts, at most ``kind.max_parts``, and start the worker
        claiming from the back."""
        for p in model.params():
            self.weights[p.name][...] = p.data
        self.counter.reset(n_parts)
        self._io(self.conn.send, batch)

    def result(self) -> dict[int, tuple[object, dict[str, np.ndarray]]]:
        """Part index -> (value, gradients) of each part the worker
        computed since the last ``submit``; the worker's exception is
        re-raised as the same type.  The gradients are views of the shared
        memory, valid until the next ``submit``."""
        reply = self._io(self.conn.recv)
        if reply[0] == "err":
            exc = reply[1]
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note(f"raised in the {self.kind.name} part worker:\n" + reply[2])
            raise exc
        return {i: (value, {name: self.slots[i][name] for name in names})
                for i, value, names in reply[1]}

    def _io(self, op, *args):
        """A dead worker or an interrupted transfer leaves the pipe out of
        step, so the worker is dropped; the next step forks a new one."""
        try:
            return op(*args)
        except BaseException as exc:
            self.close()
            if isinstance(exc, (EOFError, OSError)):
                raise RuntimeError(f"the {self.kind.name} part worker exited") from exc
            raise

    def close(self) -> None:
        self.conn.close()
        self.proc.join(timeout=5)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()


# One worker per kind of step, by kind name.
_workers: dict[str, _PartWorker] = {}
# Held from a worker's ``submit`` until its parts are added up: a worker has
# one pipe and one set of slots, so a second thread stepping meanwhile runs
# its parts inline.
_lock = threading.Lock()


def cores() -> int:
    """How many cores this process may run on: with fewer than two, every
    part runs here."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return n or 1


def _part_worker(kind: PartKind, model) -> _PartWorker | None:
    """The process's worker for ``kind``, forked on first use and again when
    the model's config or layout change, or None when fewer than two cores
    are available to this process.  Call it holding ``_lock``."""
    if cores() < 2:
        return None
    worker = _workers.get(kind.name)
    if worker is not None and worker.owner != os.getpid():  # a forked copy owns no worker
        worker = None
    elif worker is not None and (not worker.proc.is_alive()
                                 or worker.key != (model.cfg, _layout(model))):
        worker.close()
        worker = None
    if worker is None:
        worker = _workers[kind.name] = _PartWorker(kind, model)
    return worker


def _claimed_grads(worker: _PartWorker, model, batch, n_parts: int) -> tuple[list, int]:
    """Each part's (value, gradients), in part order, with this process
    claiming parts from the front and ``worker`` from the back; and how many
    the worker computed.  If a part raises here, the counter is closed and
    the worker's reply read, to keep the pipe in step, before re-raising."""
    worker.submit(model, batch, n_parts)
    results = {}
    try:
        while (i := worker.counter.claim(back=False)) is not None:
            results[i] = worker.kind.part(model, batch, i)
    except BaseException:
        worker.counter.close()
        try:
            worker.result()  # this error is the one raised
        except Exception:
            pass
        raise
    theirs = worker.result()
    results.update(theirs)
    return [results[i] for i in range(n_parts)], len(theirs)


def _sum_parts(results) -> tuple[list, dict[str, np.ndarray]]:
    """The parts' values, and their gradients added in part order into
    arrays of their own."""
    grads = {}
    for _, part_grads in results:
        for name, g in part_grads.items():
            grads[name] = grads[name] + g if name in grads else g.copy()
    return [value for value, _ in results], grads


def run_parts(kind: PartKind, model, batch,
              n_parts: int) -> tuple[list, dict[str, np.ndarray], dict]:
    """One step of ``kind`` on ``batch``: each part's value (a training
    part's loss share) in part order, the parts' gradients added in part
    order (``{}`` for a forward-only kind), and how many parts each process
    computed, ``{"parent": n, "worker": m}``.

    With two or more parts and a worker free, this process claims parts from
    the front and the worker from the back, each until none is left, so a
    faster core takes more of them; otherwise every part runs here.
    """
    if n_parts >= 2 and _lock.acquire(blocking=False):
        try:
            worker = _part_worker(kind, model)
            if worker is not None:
                results, by_worker = _claimed_grads(worker, model, batch, n_parts)
                # added up before the lock is released: the worker's
                # gradients are shared memory that the next submit overwrites
                return *_sum_parts(results), {"parent": n_parts - by_worker,
                                              "worker": by_worker}
        finally:
            _lock.release()
    results = [kind.part(model, batch, i) for i in range(n_parts)]
    return *_sum_parts(results), {"parent": n_parts, "worker": 0}
