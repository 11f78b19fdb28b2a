"""The part worker for each kind of split step (LM pretraining, phase 1,
the matching-head rerank, the image-side forwards of CLIP alone and of
CLIP with the adapter, report QA's answers): one fork per kind for the life
of the process, a failing part re-raised in step, a dead worker raising
instead of hanging, a part for each process even when one of them stalls,
and no process left behind by a script that runs one and exits.  Every
``PartKind`` under src/ has an entry in ``STEPS`` (``test_imports.py``).
Then the transfer, one protocol-5 message each way through areas of shared
memory sized once, at the fork: weights sent in the request only after they
change, a batch pickled once a step, a reply area with room for the
gradients of every part the worker may compute, returned values and
gradients that outlive the next step, a pipe that carries metadata only,
fresh weights included, and requests and replies larger than their areas
sent whole through the pipe by the same worker."""

import os
import pickle
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from multiprocessing.connection import Connection

import numpy as np
import pytest

from graftkit import clip_stage, nn, partworker, qformer, vqa
from graftkit.clip_stage import ClipConfig, ClipModel
from graftkit.optim import Adam
from graftkit.params import ParamRegistry

SRC = Path(nn.__file__).resolve().parents[1]
QCFG = qformer.QFormerConfig(n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8, grid_dim=16,
                             text_max_len=24, vocab_size=40)

pytestmark = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                reason="the worker runs only with two cores")
needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process states from /proc")


def tiny_lm():
    return nn.DecoderLM(ParamRegistry(), nn.LmConfig(vocab_size=30, dim=32, blocks=2, heads=2,
                                                     max_len=64), np.random.default_rng(0))


def lm_step(bad=None):
    """A step of two one-row LM parts; part ``bad`` reads an infinite weight."""
    lm, rows = tiny_lm(), [[1, 2, 3, 4], [1, 2, 3, 4, 5]]
    if bad is not None:
        lm.tok.data[28] = np.inf
        rows[bad][1] = 28
    parts = [nn._pad_batch([(r, 0) for r in rows], [i], lm.cfg.pad_id) for i in range(2)]
    total = sum(int(nn.next_token_targets(*part)[1].sum()) for part in parts)
    return nn._LM_PARTS, lm, (parts, total), len(parts)


def lm_step_of_8():
    """A step of eight one-row LM parts, the most a step has."""
    lm, rows = tiny_lm(), [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(8)]
    parts = [nn._pad_batch(rows, [i], lm.cfg.pad_id) for i in range(8)]
    total = sum(int(nn.next_token_targets(*part)[1].sum()) for part in parts)
    return nn._LM_PARTS, lm, (parts, total), len(parts)


def phase1_step(bad=None):
    """A phase-1 step of its three objectives; objective ``bad`` (ITC, ITG
    or ITM) reads an infinite weight of its own head."""
    model = qformer.QFormerModel(QCFG, seed=0)
    if bad is not None:
        head = ("qf.itc_txt_proj", "qf.itg_head", "qf.itm_head")[bad]
        model.registry[head + ".b"].data[0] = np.inf
    rng = np.random.default_rng(1)
    tokens, lengths = rng.integers(1, 40, (4, 6)), np.array([6, 2, 5, 3])
    batch = (rng.normal(0, 1, (4, 4, 16)), (tokens, lengths), (tokens, lengths),
             qformer._mismatch(rng, 4))
    return qformer._PHASE1_PARTS, model, batch, 3


def itm_step(bad=None):
    """A rerank of 17 grids against one text, in two parts of 9 and 8 grids;
    part ``bad``'s first grid is NaN."""
    model = qformer.QFormerModel(QCFG, seed=0)
    grids = np.random.default_rng(2).normal(0, 1, (17, 4, 16))
    if bad is not None:
        grids[9 * bad] = np.nan
    return (qformer._ITM_PARTS, model,
            (qformer._itm_rows, np.array_split(grids, 2), (np.array([5, 9, 3]),)), 2)


def tiny_clip():
    return ClipModel(40, ClipConfig(image=nn.ImageEncoderConfig(patch=32, dim=16, blocks=1,
                                                                heads=2),
                                    text_dim=16, text_blocks=1, text_heads=2, proj_dim=8),
                     seed=0)


def images(n: int, bad=None) -> list[np.ndarray]:
    """``n`` random images as two halves; half ``bad``'s first image is NaN."""
    imgs = np.random.default_rng(3).uniform(0, 1, (n, 64, 64))
    if bad is not None:
        imgs[-(-n // 2) * bad] = np.nan
    return np.array_split(imgs, 2)


def clip_step(bad=None):
    """The embeddings of 17 images in two parts of 9 and 8."""
    return (clip_stage._IMAGE_PARTS, tiny_clip(),
            (clip_stage._embedding_rows, images(17, bad), ()), 2)


def adapter_step(bad=None):
    """The grids and query projections of 17 images in two parts."""
    return (qformer._ADAPTER_PARTS, qformer._ImageAdapter(tiny_clip(),
                                                          qformer.QFormerModel(QCFG, seed=0)),
            (qformer._query_projection_rows, images(17, bad), ()), 2)


def answers_step(bad=None):
    """Four prompts forked from one dialog state, answered as two groups of
    two; group ``bad``'s first prompt reads an infinite weight."""
    lm = tiny_lm()
    soft = np.random.default_rng(4).normal(0, 1, (2, 32))
    dialog = lm.prefill(soft, [[1, 2, 3, 4]])
    groups = [[[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 7]], [[1, 2, 3, 4, 8, 9, 10], [1, 2, 3, 4, 11]]]
    if bad is not None:
        lm.tok.data[28] = np.inf
        groups[bad][0] = [*groups[bad][0], 28]
    return vqa._ANSWER_PARTS, lm, (soft, dialog, groups), 2


STEPS = {"LM": lm_step, "phase-1": phase1_step, "itm": itm_step, "clip": clip_step,
         "clip-adapter": adapter_step, "lm-answers": answers_step}


def run(step):
    return partworker.run_parts(*step)


def _flat(v) -> list[np.ndarray]:
    """A part's value as flat arrays: a tuple's arrays each, and a list of
    decoded id lists as each list's length, then its ids."""
    if isinstance(v, tuple):
        return [np.ravel(a) for a in v]
    if isinstance(v, list):
        return [np.array([len(ids), *ids]) for ids in v]
    return [np.ravel(v)]


def values(out) -> np.ndarray:
    """A step's summed loss, or each part's loss share or output, flat."""
    parts = out[0] if isinstance(out[0], list) else [out[0]]
    return np.concatenate([a for v in parts for a in _flat(v)])


def assert_bitwise(got, ref):
    assert np.array_equal(values(got), values(ref))
    assert got[1].keys() == ref[1].keys()
    assert all(np.array_equal(got[1][k], ref[1][k]) for k in ref[1])


def close_worker(name: str) -> None:
    """Close the worker of kind ``name``, if one is up, so that the next step
    of that kind forks one."""
    worker = partworker._workers.pop(name, None)
    if worker is not None:
        worker.close()


def test_alternating_kinds_fork_each_worker_once(monkeypatch):
    forked = []
    init = partworker._PartWorker.__init__
    monkeypatch.setattr(partworker._PartWorker, "__init__",
                        lambda self, kind, *a: (forked.append(kind.name), init(self, kind, *a))[1])
    for name in list(partworker._workers):
        close_worker(name)
    # the LM worker, forked for a step of two parts, has room for the seven
    # gradient sets that a step of eight may return
    steps = [STEPS["LM"], lm_step_of_8, *(step for name, step in STEPS.items() if name != "LM")]
    pids = []
    for _ in range(2):  # LM, LM of 8 parts, phase 1, ITM, ..., then again
        for make in steps:
            step = make()
            run(step)
            pids.append((step[0].name, partworker._workers[step[0].name].proc.pid))
    assert pids[:len(steps)] == pids[len(steps):]
    assert sorted(forked) == sorted(STEPS)  # a kind whose worker was up forks none


@pytest.mark.parametrize("name, bad", [("LM", 0), ("LM", 1), ("phase-1", 0), ("phase-1", 2),
                                       ("itm", 0), ("itm", 1), ("clip", 0), ("clip", 1),
                                       ("clip-adapter", 0), ("clip-adapter", 1),
                                       ("lm-answers", 0), ("lm-answers", 1)])
def test_a_failing_part_is_reraised_and_the_next_call_works(name, bad):
    ref = run(STEPS[name]())  # forks the worker if none is up
    worker = partworker._workers[name]
    with pytest.raises(FloatingPointError) as info:
        run(STEPS[name](bad))
    # computed here, it is raised as it is; in the worker, with its traceback
    assert all(f"raised in the {name} part worker" in n
               for n in getattr(info.value, "__notes__", []))
    assert_bitwise(run(STEPS[name]()), ref)  # the pipe is in step: no stale reply is read
    assert partworker._workers[name] is worker


# not the answers step: it returns no gradients, and its dialog state is
# refused once the LM is written (test_tasks covers the refusal)
@pytest.mark.parametrize("name", [name for name in STEPS if name != "lm-answers"])
def test_returned_gradients_outlive_the_next_step(name):
    # the worker's gradients and values come back in the reply area, which
    # the next step overwrites; a row kind's values are the worker's outputs
    step = STEPS[name]()
    got = run(step)
    kept = {k: g.copy() for k, g in got[1].items()}
    kept_values = values(got)
    for p in step[1].params():
        p.write(p.data * 1.5)
    run(step)
    assert all(np.array_equal(got[1][k], kept[k]) for k in kept)
    assert np.array_equal(values(got), kept_values)


@pytest.mark.parametrize("name", STEPS)
def test_a_dead_worker_raises_instead_of_hanging(name):
    kind, model, batch, n_parts = STEPS[name]()
    worker = partworker._PartWorker(kind, model)
    worker.proc.kill()
    worker.proc.join(timeout=5)
    assert worker.conn.poll(5)  # end of file, since the parent holds no copy of the child's end
    with pytest.raises(RuntimeError, match=f"the {name} part worker exited"):
        worker.submit(model, batch, n_parts)
        worker.result()
    assert not worker.proc.is_alive()


@pytest.mark.parametrize("name", STEPS)
def test_the_parent_computes_a_part_when_it_stalls_right_after_the_send(name, monkeypatch):
    # it claims its first part before the send, so a worker woken by the
    # request cannot take every part meanwhile
    step = STEPS[name]()
    run(step)  # forks the worker if none is up
    parent, send = os.getpid(), Connection.send
    monkeypatch.setattr(Connection, "send", lambda self, obj: (
        send(self, obj), os.getpid() == parent and time.sleep(0.2))[0])
    got = run(step)
    assert got[2]["parent"] >= 1 and got[2]["worker"] >= 1
    assert got[2]["parent"] + got[2]["worker"] == step[3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_bitwise(got, run(step))


@pytest.mark.parametrize("name", STEPS)
def test_the_worker_computes_a_part_when_it_wakes_late(name, monkeypatch):
    # the last part is kept for it, so this process cannot take every part
    # while the worker waits to run
    parent, load = os.getpid(), partworker._load
    monkeypatch.setattr(partworker, "_load", lambda *a, **k: (
        os.getpid() != parent and time.sleep(0.2), load(*a, **k))[1])
    monkeypatch.delitem(partworker._workers, name, raising=False)
    step = STEPS[name]()
    try:
        got = run(step)  # forks a worker that sleeps before each step
    finally:
        partworker._workers.pop(name).close()
    assert got[2] == {"parent": step[3] - 1, "worker": 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_bitwise(got, run(step))


def test_another_config_of_the_same_layout_forks_a_new_worker(monkeypatch):
    # the worker computes on its copy of the model it was forked with; two
    # head counts split the same weights differently, so the layout alone
    # cannot tell their steps apart
    lm_2, lm_4 = (nn.DecoderLM(ParamRegistry(), nn.LmConfig(vocab_size=30, dim=32, blocks=2,
                                                             heads=heads, max_len=64),
                               np.random.default_rng(0)) for heads in (2, 4))
    assert partworker._layout(lm_2) == partworker._layout(lm_4)
    data = [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(8)]
    nn._batch_grads(lm_2, data, np.arange(8))
    first = partworker._workers["LM"]
    parent, part_grads = os.getpid(), nn._part_grads
    monkeypatch.setattr(nn, "_part_grads", lambda *a: (
        os.getpid() == parent and time.sleep(0.05), part_grads(*a))[1])  # this process only
    got = nn._batch_grads(lm_4, data, np.arange(8))
    assert partworker._workers["LM"] is not first and not first.proc.is_alive()
    assert got[2]["worker"] > 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_bitwise(got, nn._batch_grads(lm_4, data, np.arange(8)))


def test_a_parameter_frozen_after_the_fork_takes_no_gradient_in_the_worker(monkeypatch):
    # the worker computes on its copy of the model it was forked with, so a
    # freeze since then must fork a new one
    data = [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(8)]
    nn._batch_grads(tiny_lm(), data, np.arange(8))
    first = partworker._workers["LM"]
    lm = tiny_lm()
    lm.tok.freeze()
    parent, part_grads = os.getpid(), nn._part_grads
    monkeypatch.setattr(nn, "_part_grads", lambda *a: (
        os.getpid() == parent and time.sleep(0.05), part_grads(*a))[1])  # this process only
    got = nn._batch_grads(lm, data, np.arange(8))
    assert partworker._workers["LM"] is not first and not first.proc.is_alive()
    assert got[2]["worker"] > got[2]["parent"]
    assert "lm.tok" not in got[1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_bitwise(got, nn._batch_grads(lm, data, np.arange(8)))


def test_a_new_lm_worker_has_room_for_the_gradients_of_all_but_one_part(monkeypatch):
    # the reply area is sized from the step, not grown by a reply too large
    # for it: a worker that computes 5 of the 8 parts returns more than a
    # new worker's 1 MiB of gradients
    lm = tiny_lm()
    assert 5 * sum(p.data.nbytes for p in lm.params()) > 1 << 20
    data = [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(8)]
    parent, part_grads = os.getpid(), nn._part_grads
    monkeypatch.setattr(nn, "_part_grads", lambda *a: (
        os.getpid() == parent and time.sleep(0.1), part_grads(*a))[1])  # this process only
    monkeypatch.delitem(partworker._workers, "LM", raising=False)
    try:
        got = nn._batch_grads(lm, data, np.arange(8))  # forks a new worker
    finally:
        partworker._workers.pop("LM").close()
    assert got[2]["worker"] >= 5 and got[2]["parent"] + got[2]["worker"] == 8
    monkeypatch.setattr(nn, "_part_grads", part_grads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_bitwise(got, nn._batch_grads(lm, data, np.arange(8)))


def slow_parent(monkeypatch, cls, method: str) -> None:
    """Each call of ``cls.method`` in this process, not a worker, first
    sleeps, so that the worker claims the last part."""
    parent, original = os.getpid(), getattr(cls, method)
    monkeypatch.setattr(cls, method, lambda *a: (
        os.getpid() == parent and time.sleep(0.05), original(*a))[1])


def pipe_messages(monkeypatch) -> list:
    """Each object this process sends through a pipe from now on."""
    sent, send = [], Connection.send
    monkeypatch.setattr(Connection, "send", lambda self, obj: (sent.append(obj),
                                                               send(self, obj))[1])
    return sent


def test_a_forward_after_a_weight_write_uses_the_new_weights_in_the_worker(monkeypatch):
    kind, model, batch, n_parts = itm_step()
    slow_parent(monkeypatch, qformer.QFormerModel, "itm_logits")
    sent = pipe_messages(monkeypatch)
    outputs = []

    def step():
        got = run((kind, model, batch, n_parts))
        assert got[2] == {"parent": 1, "worker": 1}
        outputs.append(np.concatenate([kind.part(model, batch, i)[0] for i in range(n_parts)]))
        assert np.array_equal(values(got), outputs[-1])

    step()
    step()  # the same parameters at the same versions: no weights sent
    Adam(model.params(), lr=0.01).step({p.name: np.ones_like(p.data) for p in model.params()})
    step()  # an optimizer step on the same model
    model.registry.load_values(qformer.QFormerModel(QCFG, seed=4).registry.snapshot())
    step()  # a load into the same model
    assert [fresh for fresh, _, _ in sent[1:]] == [False, True, True]
    assert not any(np.array_equal(a, b) for a, b in zip(outputs[1:], outputs[2:]))


def test_a_model_of_the_same_layout_gets_its_own_weights_sent(monkeypatch):
    # the worker holds the parameters it was sent, so a new model whose
    # parameters took a freed one's ids is still told apart
    sent = pipe_messages(monkeypatch)
    kind, model, batch, n_parts = itm_step()
    run((kind, model, batch, n_parts))
    del model
    for _ in range(3):
        kind, model, batch, n_parts = itm_step()
        run((kind, model, batch, n_parts))
        del model
    assert [fresh for fresh, _, _ in sent[1:]] == [True] * 3


def test_the_pipe_carries_a_16_image_step_as_metadata_only(monkeypatch):
    kind, model, _, _ = clip_step()
    batch = (clip_stage._embedding_rows, images(16), ())
    flipped = (clip_stage._embedding_rows, [h[:, :, ::-1] for h in batch[1]], ())
    assert not flipped[1][0].flags.c_contiguous  # numpy would pickle it in band
    run((kind, model, batch, 2))  # forks the worker if none is up
    train = lm_step()
    lm = train[1]
    run(train)  # likewise
    Adam(lm.params(), lr=0.01).step({p.name: np.ones_like(p.data) for p in lm.params()})
    sent = pipe_messages(monkeypatch)
    run((kind, model, batch, 2))
    run((kind, model, flipped, 2))
    run(train)  # a training step after an optimizer step sends the weights
    assert sum(h.nbytes for h in batch[1]) == 16 * 64 * 64 * 8
    assert len(sent) == 3 and all(len(pickle.dumps(m)) < 1024 for m in sent[:2])
    assert sent[2][0] and sum(p.data.nbytes for p in lm.params()) > 200_000
    assert len(pickle.dumps(sent[2])) < 4096


class Pickled:
    """A batch item that counts how often it is pickled."""
    count = 0

    def __reduce__(self):
        Pickled.count += 1
        return Pickled, ()


def same_rows(model, rows, item) -> np.ndarray:
    """``rows`` as they are; ``item`` only rides in the batch."""
    return rows


def test_a_split_step_pickles_its_batch_once():
    kind, model, _, _ = itm_step()
    batch = (same_rows, np.array_split(np.arange(8.0)[:, None], 2), (Pickled(),))
    run((kind, model, batch, 2))  # forks the worker if none is up
    Pickled.count = 0
    got = run((kind, model, batch, 2))
    assert got[2] == {"parent": 1, "worker": 1}
    assert Pickled.count == 1  # by the request; the worker's area was sized at its fork


def test_a_request_larger_than_its_area_goes_through_the_pipe_with_the_same_bits(monkeypatch):
    kind, model, batch, n_parts = clip_step()
    close_worker(kind.name)
    run((kind, model, batch, n_parts))  # forks a worker with 1 MiB areas
    worker = partworker._workers[kind.name]
    big = (clip_stage._embedding_rows, images(len(worker.request) // (64 * 64 * 8) + 1), ())
    sent = pipe_messages(monkeypatch)
    got = run((kind, model, big, n_parts))
    assert partworker._workers[kind.name] is worker and worker.proc.is_alive()
    assert got[2] == {"parent": 1, "worker": 1}
    assert len(pickle.dumps(sent[0])) > sum(h.nbytes for h in big[1]) > len(worker.request)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_bitwise(got, run((kind, model, big, n_parts)))


def wide_rows(model, rows, width: int, slow_pid: int) -> np.ndarray:
    """Each row repeated ``width`` times; in process ``slow_pid``, after a sleep."""
    if os.getpid() == slow_pid:
        time.sleep(0.05)
    return np.repeat(rows, width, axis=1)


def test_a_reply_larger_than_its_area_goes_through_the_pipe_with_the_same_bits(monkeypatch):
    kind, model, _, _ = itm_step()
    width = 1 << 16  # 4 rows of 64 K float64: 2 MiB, above the 1 MiB of a new worker
    batch = (wide_rows, np.array_split(np.arange(8.0)[:, None], 2), (width, os.getpid()))
    ref = np.repeat(np.arange(8.0)[:, None], width, axis=1)
    close_worker(kind.name)  # the next step forks a worker with 1 MiB areas
    got = run((kind, model, batch, 2))
    worker = partworker._workers[kind.name]
    assert got[2] == {"parent": 1, "worker": 1} and got[0][1].nbytes > len(worker.reply)
    assert got[0][1].flags.writeable
    assert np.array_equal(np.concatenate(got[0]), ref)
    got = run((kind, model, batch, 2))
    assert partworker._workers[kind.name] is worker and worker.proc.is_alive()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert np.array_equal(np.concatenate(got[0]), np.concatenate(run((kind, model, batch, 2))[0]))


def big_grads(model, batch, i: int) -> tuple[np.ndarray, dict]:
    """Part i: its index as an array, and a gradient of ``batch[0]`` values,
    each i + 1.  In process ``batch[1]``, it first waits (5 s at most) until
    the worker has claimed every other part."""
    n, waiting_pid = batch
    if os.getpid() == waiting_pid:
        ends = partworker._workers[BIG_GRADS.name].counter.ends
        for _ in range(5000):
            if ends[1] <= 1:
                break
            time.sleep(0.001)
    return np.array([i]), {"g": np.full(n, i + 1.0)}


BIG_GRADS = partworker.PartKind("big-grads", big_grads)


def test_gradients_past_the_reply_area_go_through_the_pipe_with_the_same_sum(monkeypatch):
    # the worker returns three 384 KB gradient sets: two fit its 1 MiB reply
    # area, the third goes through the pipe
    model = qformer.QFormerModel(QCFG, seed=0)
    loaded, load = [], partworker._load
    monkeypatch.setattr(partworker, "_load", lambda meta, spans, *a, **k: (
        loaded.append(bool(spans) and isinstance(spans[0], bytearray)),
        load(meta, spans, *a, **k))[1])
    try:
        got = run((BIG_GRADS, model, (48 << 10, os.getpid()), 4))
        assert len(partworker._workers[BIG_GRADS.name].reply) == 1 << 20
    finally:
        close_worker(BIG_GRADS.name)
    assert got[2] == {"parent": 1, "worker": 3}
    # the values and two gradient sets from the area, one gradient set piped
    assert sorted(loaded) == [False, False, False, True]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_bitwise(got, run((BIG_GRADS, model, (48 << 10, -1), 4)))


TRAIN_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from graftkit import nn, partworker, qformer
    from graftkit.clip_stage import ClipConfig, ClipModel
    from graftkit.corpus import CorpusSpec, generate_corpus
    from graftkit.params import ParamRegistry
    from graftkit.search import ImageIndexB, ImageIndexC, search_b
    from graftkit.templates import QA_QUESTIONS
    from graftkit.vqa import ElixrBundle

    def clip_for(corpus):
        return ClipModel(len(corpus.vocab), ClipConfig(
            image=nn.ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2), text_dim=16,
            text_blocks=1, text_heads=2, proj_dim=8), seed=0)

    if sys.argv[1] == "lm-answers":
        corpus = generate_corpus(3, CorpusSpec(n_studies=4))
        qf = qformer.QFormerModel(qformer.QFormerConfig(
            n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8, grid_dim=16, text_max_len=32,
            vocab_size=len(corpus.vocab)), seed=0)
        lm = nn.DecoderLM(ParamRegistry(), nn.LmConfig(vocab_size=len(corpus.vocab), dim=16,
                                                       blocks=1, heads=2, max_len=1400),
                          np.random.default_rng(2))
        lm.freeze()
        bridge = qformer.Phase2Bridge(ParamRegistry(), 16, 16, 16, np.random.default_rng(3))
        bundle = ElixrBundle(clip_for(corpus), qf, qf, bridge, lm, corpus.vocab)
        bundle.answers(bundle.prepare(corpus.studies[0].image), QA_QUESTIONS)
    elif sys.argv[1] == "LM":
        lm = nn.DecoderLM(ParamRegistry(), nn.LmConfig(vocab_size=30, dim=32, blocks=2, heads=2,
                                                       max_len=64), np.random.default_rng(0))
        data = [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(16)]
        nn.pretrain_lm(lm, data, nn.LmTrainConfig(steps=2))
    elif sys.argv[1] == "phase-1":
        corpus = generate_corpus(3, CorpusSpec(n_studies=6))
        cfg = qformer.Phase1Config(steps=2, eval_every=2, qformer=qformer.QFormerConfig(
            n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8, grid_dim=16, text_max_len=32))
        qformer.phase1_train(corpus, clip_for(corpus), cfg, eval_ids=[4, 5])
    else:
        corpus = generate_corpus(3, CorpusSpec(n_studies=16))
        qf = qformer.QFormerModel(qformer.QFormerConfig(
            n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8, grid_dim=16, text_max_len=32,
            vocab_size=len(corpus.vocab)), seed=0)
        ImageIndexC.build(clip_for(corpus), corpus.studies)
        index = ImageIndexB.build(clip_for(corpus), qf, corpus.studies)
        search_b("left pleural effusion", index, qf, corpus.vocab)
    print(partworker._workers[sys.argv[1]].proc.pid, flush=True)
""")


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@needs_proc
@pytest.mark.parametrize("name", STEPS)
def test_a_script_that_trains_and_exits_leaves_no_process(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen([sys.executable, "-c", TRAIN_SCRIPT, name],
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0
    pid = int(out.split()[0])
    deadline = time.monotonic() + 5
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)
