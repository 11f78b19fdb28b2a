"""LM pretraining: the step computed in parts against the single-batch loop
it replaced, its determinism, input checks, and the worker process's
lifetime."""

import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from graftkit import nn
from graftkit.autograd import Tape
from graftkit.optim import Adam
from graftkit.params import ParamRegistry

SRC = Path(nn.__file__).resolve().parents[1]
CFG = nn.LmTrainConfig(steps=8, batch_size=5, long_batch_size=3, long_threshold=25, lr=1e-3)

needs_two_cores = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the worker runs only with two cores")
needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process states from /proc")


def tiny_lm(seed=0):
    return nn.DecoderLM(ParamRegistry(), nn.LmConfig(vocab_size=30, dim=32, blocks=2, heads=2,
                                                     max_len=64), np.random.default_rng(seed))


def dataset(n=24, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(4, 40))
        out.append(([int(t) for t in rng.integers(1, 29, length)],
                    int(rng.integers(0, length - 1))))
    return out


def oracle_pretrain(lm, data, cfg, seed=0):
    """The single-batch training loop: one tape over the whole padded batch."""
    rng = np.random.default_rng(seed)
    opt = Adam(lm.params(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    batches = nn._make_batches(data, cfg, rng)
    history = []
    for _ in range(cfg.steps):
        tokens, lengths, starts = nn._pad_batch(data, next(batches), lm.cfg.pad_id)
        with Tape() as tape:
            loss = lm.batch_loss(tokens, lengths, starts)
        opt.step(tape.gradients(loss))
        history.append(float(loss.data))
    return history


def trained(seed=3, data=None, cfg=CFG):
    lm = tiny_lm()
    stats = nn.pretrain_lm(lm, dataset() if data is None else data, cfg, seed=seed)
    return stats["history_head"], lm.digest()


@pytest.mark.parametrize("start", [0, 1])
def test_eval_lm_loss_is_the_per_token_mean(start):
    # batches weigh by their target count: a row of L tokens whose loss
    # starts at 0 has L - 1 targets, as one with loss_start 1 has
    lm = tiny_lm()
    rng = np.random.default_rng(7)
    data = [([int(t) for t in rng.integers(1, 29, int(rng.integers(4, 20)))], start)
            for _ in range(9)]
    whole = lm.batch_loss(*nn._pad_batch(data, range(len(data)), lm.cfg.pad_id))
    assert abs(nn.eval_lm_loss(lm, data, batch_size=4) - float(whole.data)) < 1e-12


def test_split_matches_the_single_batch_oracle():
    split, ref = tiny_lm(), tiny_lm()
    data = dataset()
    hist = nn.pretrain_lm(split, data, CFG, seed=3)["history_head"]
    ref_hist = oracle_pretrain(ref, data, CFG, seed=3)
    # The parts sum the same float64 terms in another order and pad to other
    # widths: a few ulps per step in the loss (~4e-16 at 3.4), and Adam turns
    # gradient differences of that size into weight differences far below 1e-10.
    np.testing.assert_allclose(hist, ref_hist[:5], rtol=0, atol=1e-13)
    for p, q in zip(split.params(), ref.params()):
        np.testing.assert_allclose(p.data, q.data, rtol=0, atol=1e-10, err_msg=p.name)


def test_one_row_batch_is_the_single_batch_loss_bitwise():
    lm, data = tiny_lm(), dataset()
    loss, grads = nn._batch_grads(lm, data, np.array([5]))
    tokens, lengths, starts = nn._pad_batch(data, [5], lm.cfg.pad_id)
    with Tape() as tape:
        ref = lm.batch_loss(tokens, lengths, starts)
    ref_grads = tape.gradients(ref)
    assert loss == float(ref.data)
    assert grads.keys() == ref_grads.keys()
    assert all(np.array_equal(grads[k], ref_grads[k]) for k in grads)


def test_a_part_without_targets_adds_nothing():
    lm = tiny_lm()
    data = [([1, 2, 3], 3), ([4, 5, 6, 7, 8], 1)]  # the first row selects no target
    loss, grads = nn._batch_grads(lm, data, np.array([0, 1]))
    ref = nn._part_grads(lm, nn._pad_batch(data, [1], lm.cfg.pad_id), total=4)
    nn._batch_grads(lm, dataset(), np.arange(4))  # reuses the worker's shared memory
    assert loss == ref[0]
    assert all(np.array_equal(grads[k], ref[1][k]) for k in ref[1])


def test_a_batch_without_targets_raises():
    with pytest.raises(ValueError, match="no target"):
        nn._batch_grads(tiny_lm(), [([1, 2, 3], 3), ([4, 5], 2)], np.array([0, 1]))


@needs_two_cores
def test_worker_and_inline_runs_are_bitwise_equal(monkeypatch):
    submitted = []
    submit = nn._PartWorker.submit
    monkeypatch.setattr(nn._PartWorker, "submit",
                        lambda self, *a: (submitted.append(1), submit(self, *a))[1])
    with_worker = trained()
    n_submitted = len(submitted)
    assert n_submitted > 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert trained() == with_worker
    assert len(submitted) == n_submitted


def test_two_runs_are_bitwise_equal():
    assert trained() == trained()


@needs_two_cores
@pytest.mark.parametrize("rows, worker_rows", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 2), (8, 2),
                                               (9, 1), (16, 4)])
def test_the_worker_computes_the_last_third_of_the_parts(monkeypatch, rows, worker_rows):
    # parts of ceil(rows / 8) rows; the worker computes the last third of them
    lm = tiny_lm()
    data = [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(rows)]
    parent_rows = []
    part_grads = nn._part_grads
    monkeypatch.setattr(nn, "_part_grads", lambda lm, part, total: (
        parent_rows.extend(part[1]), part_grads(lm, part, total))[1])
    ref = nn._batch_grads(tiny_lm(), data, np.arange(rows))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    got = nn._batch_grads(lm, data, np.arange(rows))
    assert len(parent_rows) == 2 * rows - worker_rows  # inline: every row
    assert parent_rows[:rows - worker_rows] == [5 + i for i in range(rows - worker_rows)]
    assert got[0] == ref[0] and all(np.array_equal(got[1][k], ref[1][k]) for k in ref[1])


@needs_two_cores
def test_two_calls_share_one_worker():
    trained()
    first = nn._worker.proc.pid
    trained(seed=4)
    assert nn._worker.proc.pid == first and nn._worker.proc.is_alive()


@needs_two_cores
@pytest.mark.parametrize("bad_part", [0, 1])
def test_a_failing_part_is_reraised_and_the_next_call_works(bad_part):
    ref = trained()
    lm = tiny_lm()
    lm.tok.data[28] = np.inf  # a token that only the bad part holds
    rows = [[1, 2, 3, 4], [1, 2, 3, 4, 5]]  # length-sorted: the parent's part, the worker's
    rows[bad_part][1] = 28
    with pytest.raises(FloatingPointError) as info:
        nn.pretrain_lm(lm, [(r, 0) for r in rows], nn.LmTrainConfig(steps=1, batch_size=2))
    from_worker = any("LM training worker" in n for n in getattr(info.value, "__notes__", []))
    assert from_worker == (bad_part == 1)
    worker = nn._worker
    assert trained() == ref  # the pipe is in step: no stale reply is read
    assert nn._worker is worker


@needs_two_cores
def test_a_dead_worker_raises_instead_of_hanging():
    lm, data = tiny_lm(), dataset()
    worker = nn._PartWorker(lm)
    worker.proc.kill()
    worker.proc.join(timeout=5)
    assert worker.conn.poll(5)  # end of file, since the parent holds no copy of the child's end
    part = nn._pad_batch(data, [0], lm.cfg.pad_id)
    with pytest.raises(RuntimeError, match="worker exited"):
        worker.submit(lm, [part, part], 10)
        worker.result()
    assert not worker.proc.is_alive()


@pytest.mark.parametrize("field, data, match", [
    ("steps", None, "LmTrainConfig.steps"),
    ("batch_size", None, "LmTrainConfig.batch_size"),
    ("long_batch_size", None, "LmTrainConfig.long_batch_size"),
    (None, [], "empty"),
    (None, [([1, 2, 3, 4], 1), ([5, 6], 2)], r"dataset\[1\]"),
    (None, [([7], 0)], r"dataset\[0\]"),
])
def test_bad_training_input_is_rejected_up_front(field, data, match):
    cfg = nn.LmTrainConfig(steps=2)
    if field:
        setattr(cfg, field, -1 if field == "steps" else 0)
    lm = tiny_lm()
    before = lm.digest()
    with pytest.raises(ValueError, match=match):
        nn.pretrain_lm(lm, dataset() if data is None else data, cfg)
    assert lm.digest() == before


# ---------------------------------------------------------------------------
# process hygiene: no worker outlives the process that forked it

TRAIN_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from graftkit import nn
    from graftkit.params import ParamRegistry

    lm = nn.DecoderLM(ParamRegistry(), nn.LmConfig(vocab_size=30, dim=32, blocks=2, heads=2,
                                                   max_len=64), np.random.default_rng(0))
    data = [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(16)]

    def log(_):
        print(nn._worker.proc.pid, flush=True)

    nn.pretrain_lm(lm, data, nn.LmTrainConfig(steps=int(sys.argv[1]), batch_size=8), log=log)
""")


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _train_process(steps: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.Popen([sys.executable, "-c", TRAIN_SCRIPT, str(steps)],
                            stdout=subprocess.PIPE, text=True, env=env)


def _gone_within(pid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not _running(pid)


@needs_two_cores
@needs_proc
def test_a_script_that_trains_and_exits_leaves_no_process():
    proc = _train_process(steps=2)
    try:
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0
    pid = int(out.split()[0])
    assert _gone_within(pid, 5)


@needs_two_cores
@needs_proc
def test_a_killed_parent_leaves_a_worker_that_exits():
    proc = _train_process(steps=10**6)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no step finished in 60 s"
        pid = int(proc.stdout.readline())  # logged after step 0, with the worker up
        time.sleep(0.2)                    # well inside later steps
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        assert _gone_within(pid, 5)
    finally:
        proc.kill()
        proc.stdout.close()
