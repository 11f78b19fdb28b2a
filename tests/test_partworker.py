"""The part worker for each kind of split step (LM pretraining, phase 1):
one fork per kind for the life of the process, a failing part re-raised in
step, a dead worker raising instead of hanging, and no process left behind
by a script that trains and exits."""

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
    return nn._LM_PARTS, (lm.cfg,), lm, (parts, total), len(parts)


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
    return qformer._PHASE1_PARTS, (QCFG, 0), model, batch, 3


STEPS = {"LM": lm_step, "phase-1": phase1_step}


def run(step):
    kind, args, model, batch, n_parts = step
    return partworker.run_parts(kind, args, model, batch, n_parts)


def assert_bitwise(got, ref):
    assert got[0] == ref[0] and got[1].keys() == ref[1].keys()
    assert all(np.array_equal(got[1][k], ref[1][k]) for k in ref[1])


def test_alternating_kinds_fork_each_worker_once(monkeypatch):
    forked = []
    init = partworker._PartWorker.__init__
    monkeypatch.setattr(partworker._PartWorker, "__init__",
                        lambda self, kind, *a: (forked.append(kind.name), init(self, kind, *a))[1])
    pids = []
    for _ in range(2):  # LM, phase 1, LM, phase 1
        for name, step in STEPS.items():
            run(step())
            pids.append((name, partworker._workers[name].proc.pid))
    assert pids[:2] == pids[2:]
    assert len(forked) == len(set(forked))  # a kind whose worker was up forks none


@pytest.mark.parametrize("name, bad", [("LM", 0), ("LM", 1), ("phase-1", 0), ("phase-1", 2)])
def test_a_failing_part_is_reraised_and_the_next_call_works(name, bad):
    ref = run(STEPS[name]())  # forks the worker if none is up
    worker = partworker._workers[name]
    with pytest.raises(FloatingPointError) as info:
        run(STEPS[name](bad))
    # computed here, it is raised as it is; in the worker, with its traceback
    assert all(f"raised in the {name} training worker" in n
               for n in getattr(info.value, "__notes__", []))
    assert_bitwise(run(STEPS[name]()), ref)  # the pipe is in step: no stale reply is read
    assert partworker._workers[name] is worker


@pytest.mark.parametrize("name", STEPS)
def test_returned_gradients_outlive_the_next_step(name):
    # the worker's gradients are shared memory that the next step overwrites
    step = STEPS[name]()
    _, grads, _ = run(step)
    kept = {k: g.copy() for k, g in grads.items()}
    for p in step[2].params():
        p.write(p.data * 1.5)
    run(step)
    assert all(np.array_equal(grads[k], kept[k]) for k in kept)


@pytest.mark.parametrize("name", STEPS)
def test_a_dead_worker_raises_instead_of_hanging(name):
    kind, args, model, batch, n_parts = STEPS[name]()
    worker = partworker._PartWorker(kind, args, model)
    worker.proc.kill()
    worker.proc.join(timeout=5)
    assert worker.conn.poll(5)  # end of file, since the parent holds no copy of the child's end
    with pytest.raises(RuntimeError, match=f"the {name} training worker exited"):
        worker.submit(model, batch, n_parts)
        worker.result()
    assert not worker.proc.is_alive()


TRAIN_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from graftkit import nn, partworker, qformer
    from graftkit.clip_stage import ClipConfig, ClipModel
    from graftkit.corpus import CorpusSpec, generate_corpus
    from graftkit.params import ParamRegistry

    if sys.argv[1] == "LM":
        lm = nn.DecoderLM(ParamRegistry(), nn.LmConfig(vocab_size=30, dim=32, blocks=2, heads=2,
                                                       max_len=64), np.random.default_rng(0))
        data = [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(16)]
        nn.pretrain_lm(lm, data, nn.LmTrainConfig(steps=2))
    else:
        corpus = generate_corpus(3, CorpusSpec(n_studies=6))
        clip = ClipModel(len(corpus.vocab), ClipConfig(
            image=nn.ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2), text_dim=16,
            text_blocks=1, text_heads=2, proj_dim=8), seed=0)
        cfg = qformer.Phase1Config(steps=2, eval_every=2, qformer=qformer.QFormerConfig(
            n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8, grid_dim=16, text_max_len=32))
        qformer.phase1_train(corpus, clip, cfg, eval_ids=[4, 5])
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
