"""The part worker for each kind of split step (LM pretraining, phase 1,
the matching-head rerank): one fork per kind for the life of the process, a
failing part re-raised in step, a dead worker raising instead of hanging,
and no process left behind by a script that runs one and exits.  Every
``PartKind`` under src/ has an entry in ``STEPS`` (``test_imports.py``)."""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from graftkit import nn, partworker, qformer
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
    return qformer._ITM_PARTS, model, (np.array_split(grids, 2), np.array([5, 9, 3])), 2


STEPS = {"LM": lm_step, "phase-1": phase1_step, "itm": itm_step}


def run(step):
    return partworker.run_parts(*step)


def values(out) -> np.ndarray:
    """A step's summed loss, or each part's loss share or rerank values, flat."""
    parts = out[0] if isinstance(out[0], list) else [out[0]]
    return np.concatenate([np.ravel(v) for v in parts])


def assert_bitwise(got, ref):
    assert np.array_equal(values(got), values(ref))
    assert got[1].keys() == ref[1].keys()
    assert all(np.array_equal(got[1][k], ref[1][k]) for k in ref[1])


def test_alternating_kinds_fork_each_worker_once(monkeypatch):
    forked = []
    init = partworker._PartWorker.__init__
    monkeypatch.setattr(partworker._PartWorker, "__init__",
                        lambda self, kind, *a: (forked.append(kind.name), init(self, kind, *a))[1])
    pids = []
    for _ in range(2):  # LM, phase 1, ITM, LM, phase 1, ITM
        for name, step in STEPS.items():
            run(step())
            pids.append((name, partworker._workers[name].proc.pid))
    assert pids[:len(STEPS)] == pids[len(STEPS):]
    assert len(forked) == len(set(forked))  # a kind whose worker was up forks none


@pytest.mark.parametrize("name, bad", [("LM", 0), ("LM", 1), ("phase-1", 0), ("phase-1", 2),
                                       ("itm", 0), ("itm", 1)])
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


@pytest.mark.parametrize("name", STEPS)
def test_returned_gradients_outlive_the_next_step(name):
    # the worker's gradients are shared memory that the next step overwrites
    step = STEPS[name]()
    _, grads, _ = run(step)
    kept = {k: g.copy() for k, g in grads.items()}
    for p in step[1].params():
        p.write(p.data * 1.5)
    run(step)
    assert all(np.array_equal(grads[k], kept[k]) for k in kept)


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


TRAIN_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from graftkit import nn, partworker, qformer
    from graftkit.clip_stage import ClipConfig, ClipModel
    from graftkit.corpus import CorpusSpec, generate_corpus
    from graftkit.params import ParamRegistry
    from graftkit.search import ImageIndexB, search_b

    def clip_for(corpus):
        return ClipModel(len(corpus.vocab), ClipConfig(
            image=nn.ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2), text_dim=16,
            text_blocks=1, text_heads=2, proj_dim=8), seed=0)

    if sys.argv[1] == "LM":
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
        corpus = generate_corpus(3, CorpusSpec(n_studies=qformer._ITM_SPLIT_ROWS))
        qf = qformer.QFormerModel(qformer.QFormerConfig(
            n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8, grid_dim=16, text_max_len=32,
            vocab_size=len(corpus.vocab)), seed=0)
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
