"""A second process for computations that split into independent parts.

A step whose parts exchange no activations is computed in two processes:
this one claims parts from the front of a shared counter, a forked worker
from the back, each until none is left.  Each computes at least one part
whatever the scheduler does: this process claims its first before the
worker is sent the step, so a worker woken by the send cannot take them
all, and it leaves the last part to the worker, so it cannot take them all
while the worker waits to run.  It waits for the worker's reply in any
case, so taking the worker's first part would save at most that part's
time when the worker wakes late.  A training step's loss is a sum
of parts (rows of an LM batch; phase 1's three objectives), and their
gradients are added in part order.  A forward-only step's parts each
return a value and no gradients: slices of the rows of a rerank or of an
index build (``split_rows``), or groups of report QA's questions, each
prefilled and decoded from one dialog state (``vqa._answer_part``).  Each
part is the same function on the same arrays whoever computes it, and
values and sums are kept in part order, so the bits depend neither on which
process computed which part nor on the core count.

A kind of step (``PartKind``) names a part function.  Each kind has one
worker, forked on the first step that needs it and reused for the life of
the process; the fork copies the caller's model, and the worker computes
on that copy.  It is forked again only when the model's config or
parameter layout (names, shapes, dtypes, frozen flags) change, or when it
has died.  Forking one per training call instead cost about a fifth of LM
pretraining throughput on a 2-core VM.

Shared memory, not the pipe: everything sizeable moves through a request
area and a reply area, one anonymous shared mapping made and sized at the
fork (``_room``).  A request holds the step's batch and, when its parameters
are not the objects, at the versions, last sent, the weights; the worker's
copy takes their versions too, so that a state keyed on versions
(``LmState``, ``ParamRegistry.memo``) means the same in both processes.  A
reply holds each part's gradients, read here as views valid until the next
step, and the values, copied out.  Each is pickled with protocol 5, its
arrays copied once into its area, and the pipe carries only the metadata; a
message larger than its area goes whole through the pipe.  The pipe holds
64 KB at a time, so a transfer through it waits for the other process to
wake once per 64 KB: on a 2-core VM, a round trip of a 16-image batch
(512 KB) cost 0.40-0.47 ms through the pipe, against 0.05 ms through shared
memory, and the LM's 4 MB of weights and of gradients cost 4-140 ms a step.
A frozen model's weights go once: copying CLIP's and the adapter's 3.2 MB
both ways cost 0.43 ms a call, checking them 0.01 ms.

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

import copyreg
import io
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The most parts a step has: a training batch is split into at most this many.
MAX_PARTS = 8


@dataclass(frozen=True)
class PartKind:
    """One kind of split step.

    ``part(model, batch, i)`` returns part i's (value, gradients by
    parameter name), computed here on the caller's model and in the worker
    on its forked copy of it, whose weights are the caller's at each step.
    A training part's value is its loss share; a forward-only part returns
    its output as the value and no gradients (``{}``): a slice of rows'
    outputs (``row_part``) or a group of questions' decoded ids
    (``vqa._answer_part``, on a frozen ``DecoderLM``).  The batch goes to
    the worker, and a value and gradients it computes come back, as
    pickles whose arrays travel through shared memory, so any of them may
    be large."""

    name: str
    part: Callable


def _layout(model) -> tuple:
    """The name, shape, dtype and frozen flag of each of ``model.params()``,
    in order: a parameter frozen after the fork must take no gradient in the
    worker either."""
    return tuple((p.name, p.data.shape, p.data.dtype.str, p.frozen) for p in model.params())


def _aligned(nbytes: int) -> int:
    """The room ``nbytes`` take in a shared area, whose arrays start on
    64-byte boundaries."""
    return -(-nbytes // 64) * 64


def _reduce_array(a: np.ndarray):
    """An array as its shape, dtype and memory, left out of band (a
    contiguous copy of a non-contiguous array's) and rebuilt by
    ``np.ndarray``.  numpy's reduction, kept for non-numeric dtypes, took
    290 / 150 us to pickle / unpickle the fixture LM's 69 weights on a
    2-core VM, against 150 / 60 us."""
    a = a if a.flags.c_contiguous else np.ascontiguousarray(a)
    if a.dtype.kind not in "biufc":
        return a.__reduce_ex__(5)
    return np.ndarray, (a.shape, a.dtype, pickle.PickleBuffer(a))


class _Message:
    """``obj`` pickled for the other process: ``meta``, the pickle without
    its arrays' memory, goes through the pipe with ``spans``, the (offset,
    size) of each out-of-band buffer in a shared area, 64-byte aligned from
    ``start`` and ending at ``nbytes``, or with the buffers (``place``)."""

    def __init__(self, obj, start: int = 0):
        out, buffers = io.BytesIO(), []
        pickler = pickle.Pickler(out, protocol=5, buffer_callback=buffers.append)
        pickler.dispatch_table = {**copyreg.dispatch_table, np.ndarray: _reduce_array}
        pickler.dump(obj)
        self.meta, self.buffers = out.getvalue(), [b.raw() for b in buffers]
        self.spans, self.nbytes = [], start
        for b in self.buffers:
            self.spans.append((self.nbytes, b.nbytes))
            self.nbytes += _aligned(b.nbytes)

    def place(self, area: memoryview) -> tuple[bytes, list]:
        """What the pipe carries: the buffers copied into ``area`` and their
        spans, or, for an area of fewer than ``nbytes``, the buffers as
        ``bytearray``s, so that the arrays read from them are writable."""
        if self.nbytes > len(area):
            return self.meta, [bytearray(b) for b in self.buffers]
        for (offset, size), b in zip(self.spans, self.buffers):
            area[offset:offset + size] = b
        return self.meta, self.spans


def _load(meta: bytes, spans, area: memoryview, copy: bool):
    """The object ``_Message.place`` gave: the arrays of a message left in
    ``area`` are views of the area, or, with ``copy``, own their memory; those
    of a message sent whole own the pipe's buffers."""
    if spans and isinstance(spans[0], bytearray):
        return pickle.loads(meta, buffers=spans)
    views = [area[offset:offset + size] for offset, size in spans]
    return pickle.loads(meta, buffers=[bytearray(v) for v in views] if copy else views)


def _areas(nbytes: int) -> tuple[memoryview, memoryview]:
    """A request area and a reply area of at least ``nbytes`` each (a power
    of two, 1 MiB at least) in one anonymous shared mapping: made before a
    fork, the child sees the same pages.  A page is backed by memory only
    once written, so room that no message uses costs address space only."""
    size = max(1 << 20, 1 << max(nbytes - 1, 0).bit_length())
    view = memoryview(mmap.mmap(-1, 2 * size))  # MAP_SHARED by default
    return view[:size], view[size:]


class _PartCounter:
    """A two-ended counter over one step's parts, in an anonymous shared
    mapping guarded by a lock, both made before the fork: this process takes
    parts from the front, the worker from the back, until none is left.  The
    last part is kept for the worker until it claims it: the front end, the
    back end and whether the last part is kept."""

    def __init__(self, ctx):
        self.lock = ctx.Lock()
        self.ends = np.ndarray(3, np.int64, buffer=mmap.mmap(-1, 24))

    def reset(self, n: int) -> None:
        with self.lock:
            self.ends[:] = 0, n, 1

    def claim(self, back: bool) -> int | None:
        """The first (or last) unclaimed part, or None when none is left;
        from the front, never the part kept for the worker."""
        with self.lock:
            lo, hi, kept = (int(e) for e in self.ends)
            if lo >= hi - (0 if back else kept):
                return None
            if back:
                self.ends[1:] = hi - 1, 0
                return hi - 1
            self.ends[0] = lo + 1
            return lo

    def close(self) -> None:
        """Leave nothing to claim, so that the other process stops."""
        with self.lock:
            self.ends[1] = self.ends[0]


def _worker_main(conn, inherited, kind: PartKind, model, counter, request,
                 reply_area) -> None:
    """Serve steps until the parent's end of the pipe closes.

    A request is ``(fresh, meta, spans)``: ``meta`` unpickled over the
    buffers in ``request``, or sent with it, is the step's batch and, with
    ``fresh``, the parent's weights and their versions, which ``model``, the
    fork's copy of the parent's, first takes, so that a state built at the parent's
    versions is current here too.  Then parts are claimed from the back of
    ``counter`` until none is left.  The reply is each part's gradients,
    pickled and placed the same way in ``reply_area`` as the part is done,
    and after them each part's index and value; a message that does not fit
    after those placed goes whole through the pipe.  A part that raises
    closes ``counter``, so that the parent stops too.

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
            fresh, meta, spans = conn.recv()
        except (EOFError, OSError):  # the parent is gone
            return
        try:
            batch, weights = _load(meta, spans, request, copy=False)
            if fresh:
                for p, w, version in zip(model.params(), *weights):
                    p.write(w)
                    p.version = int(version)
            done, end = [], 0
            while (i := counter.claim(back=True)) is not None:
                value, grads = kind.part(model, batch, i)
                # placed at once, so that copying them overlaps the parent's parts
                grads = _Message(grads, end)
                done.append((i, value, grads.place(reply_area)))
                if grads.nbytes <= len(reply_area):
                    end = grads.nbytes
            values = _Message([(i, value) for i, value, _ in done], end)
            reply = ("ok", [grads for _, _, grads in done], values.place(reply_area))
        except Exception as exc:  # the parent re-raises it
            counter.close()
            reply = ("err", exc, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


def _same_params(a: list, b: list) -> bool:
    """Whether two lists of (parameter, version) hold the same parameter
    objects at the same versions."""
    return len(a) == len(b) and all(p is q and v == w for (p, v), (q, w) in zip(a, b))


class _PartWorker:
    """A forked process that computes parts of each step of one ``kind``
    on its copy of ``model``, claiming them from the back of ``counter``
    while the parent claims from the front.  Each step's request and the
    worker's reply travel through a request area and a reply area sized
    here by ``_room(model, batch)``, ``batch`` being the first step's (None
    for a worker made for no step in particular), or through the pipe.

    ``sent`` holds each parameter that the worker's copy has the values of,
    with its version: the fork's own, then those of the last weights sent.
    Holding the parameters, not their ids, keeps a freed parameter's id from
    passing for a new one's."""

    def __init__(self, kind: PartKind, model, batch=None):
        self.kind, self.key = kind, (model.cfg, _layout(model))
        self.request, self.reply = _areas(_room(model, batch))
        self.sent = [(p, p.version) for p in model.params()]
        ctx = multiprocessing.get_context("fork")
        self.counter = _PartCounter(ctx)
        self.conn, child_end = ctx.Pipe()
        inherited = [self.conn, *(w.conn for w in _workers.values())]
        self.proc = ctx.Process(target=_worker_main,
                                args=(child_end, inherited, kind, model, self.counter,
                                      self.request, self.reply),
                                name=f"graftkit-{kind.name}-part", daemon=True)
        self.proc.start()
        child_end.close()  # so that a dead worker is an EOFError here, not a hang
        self.owner = os.getpid()

    def submit(self, model, batch, n_parts: int) -> int | None:
        """Place the step's request, ``batch`` with ``model``'s weights and
        their versions unless the worker has them, in the request area (or
        the pipe), open the counter on ``n_parts`` parts, claim the first for
        this process, and then start the worker claiming from the back;
        returns the part claimed (None for no parts)."""
        sent = [(p, p.version) for p in model.params()]
        fresh = not _same_params(sent, self.sent)
        weights = [p.data for p, _ in sent], np.array([v for _, v in sent], np.int64)
        meta, spans = _Message((batch, weights if fresh else None)).place(self.request)
        self.sent = sent
        self.counter.reset(n_parts)
        first = self.counter.claim(back=False)
        self._io(self.conn.send, (fresh, meta, spans))
        return first

    def result(self) -> dict[int, tuple[object, dict[str, np.ndarray]]]:
        """Part index -> (value, gradients) of each part the worker
        computed since the last ``submit``; the worker's exception is
        re-raised as the same type.  The gradients are views of the reply
        area, valid until the next ``submit``; the values are copies."""
        reply = self._io(self.conn.recv)
        if reply[0] == "err":
            self.sent = []  # whatever failed, the next step sends the weights
            exc = reply[1]
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note(f"raised in the {self.kind.name} part worker:\n" + reply[2])
            raise exc
        values = _load(*reply[2], self.reply, copy=True)
        return {i: (value, _load(*grads, self.reply, copy=False))
                for (i, value), grads in zip(values, reply[1])}

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
# one pipe and one reply area, so a second thread stepping meanwhile runs
# its parts inline.
_lock = threading.Lock()


def cores() -> int:
    """How many cores this process may run on: with fewer than two, every
    part runs here."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return n or 1


def _part_worker(kind: PartKind, model, batch) -> _PartWorker:
    """The process's worker for ``kind``, forked on first use, with areas
    sized for ``batch``, and again when the model's config or layout change
    or when it has died.  Call it holding ``_lock``."""
    worker = _workers.get(kind.name)
    if worker is not None and worker.owner != os.getpid():  # a forked copy owns no worker
        worker = None
    elif worker is not None and (not worker.proc.is_alive()
                                 or worker.key != (model.cfg, _layout(model))):
        worker.close()
        worker = None
    if worker is None:
        worker = _workers[kind.name] = _PartWorker(kind, model, batch)
    return worker


def _claimed_grads(worker: _PartWorker, model, batch, n_parts: int) -> tuple[list, int]:
    """Each part's (value, gradients), in part order, with this process
    claiming parts from the front, the first before the worker is sent the
    step, and ``worker`` from the back, the last part first; and how many
    the worker computed.  If a part raises here, the counter is closed and
    the worker's reply read, to keep the pipe in step, before re-raising."""
    i = worker.submit(model, batch, n_parts)
    results = {}
    try:
        while i is not None:
            results[i] = worker.kind.part(model, batch, i)
            i = worker.counter.claim(back=False)
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


def _room(model, batch) -> int:
    """The bytes of each area of a worker forked for ``batch``'s step: its
    request with the weights and their versions (counted, not pickled),
    which a later step may send, or the gradients of the ``MAX_PARTS - 1``
    parts the worker computes at most, whichever is larger.  A later batch
    or a forward-only value larger than that goes through the pipe."""
    params = model.params()
    weights = sum(_aligned(p.data.nbytes) for p in params) + _aligned(8 * len(params))
    grads = sum(_aligned(p.data.nbytes) for p in params if not p.frozen)
    return max(_Message(batch).nbytes + weights, (MAX_PARTS - 1) * grads)


def run_parts(kind: PartKind, model, batch,
              n_parts: int) -> tuple[list, dict[str, np.ndarray], dict]:
    """One step of ``kind`` on ``batch``: each part's value (a training
    part's loss share) in part order, the parts' gradients added in part
    order (``{}`` for a forward-only kind), and how many parts each process
    computed, ``{"parent": n, "worker": m}``.

    With two or more parts, two cores and a worker free, this process claims
    parts from the front and the worker from the back, each until none is
    left, so a faster core takes more of them, and each computes at least
    one; otherwise every part runs here.
    """
    if n_parts >= 2 and cores() >= 2 and _lock.acquire(blocking=False):
        try:
            worker = _part_worker(kind, model, batch)
            results, by_worker = _claimed_grads(worker, model, batch, n_parts)
            # added up before the lock is released: the worker's gradients
            # are views of the reply area, which the next submit overwrites
            return *_sum_parts(results), {"parent": n_parts - by_worker, "worker": by_worker}
        finally:
            _lock.release()
    results = [kind.part(model, batch, i) for i in range(n_parts)]
    return *_sum_parts(results), {"parent": n_parts, "worker": 0}


def row_part(model, batch, i: int) -> tuple[object, dict]:
    """Part i of a row-split forward ``(fn, row slices, args)``:
    ``fn(model, slice i, *args)``, and no gradients."""
    fn, slices, args = batch
    return fn(model, slices[i], *args), {}


def split_rows(kind: PartKind, model, fn: Callable, rows: np.ndarray, min_rows: int, *args):
    """``fn(model, rows, *args)`` for a forward ``fn`` whose output row j
    depends only on ``rows[j]``: from ``min_rows`` rows up, with two cores,
    as two contiguous halves, one computed here and one by ``kind``'s worker
    (whose part is ``row_part``), their outputs concatenated (an output
    tuple's arrays each); otherwise in one call here.  ``fn`` goes to the
    worker by name, so it is a module-level function."""
    n_parts = 2 if len(rows) >= min_rows and cores() >= 2 else 1
    values, _, _ = run_parts(kind, model, (fn, np.array_split(rows, n_parts), args), n_parts)
    if n_parts == 1:
        return values[0]
    if isinstance(values[0], tuple):
        return tuple(np.concatenate(v) for v in zip(*values))
    return np.concatenate(values)
