"""LM pretraining: the step computed in parts against the single-batch loop
it replaced, its determinism, input checks, and the worker process's
lifetime."""

import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from graftkit import autograd as ag, nn, partworker
from graftkit.autograd import Tape
from graftkit.optim import Adam
from graftkit.params import ParamRegistry

SRC = Path(nn.__file__).resolve().parents[1]
CFG = nn.LmTrainConfig(steps=8, lr=1e-3)

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
    opt = Adam(lm.params(), lr=cfg.lr, beta1=cfg.beta1)
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
    # starts at 0 has L - 1 targets, as one with loss_start 1 has; the 9
    # rows span two batches of 8
    lm = tiny_lm()
    rng = np.random.default_rng(7)
    data = [([int(t) for t in rng.integers(1, 29, int(rng.integers(4, 20)))], start)
            for _ in range(9)]
    whole = lm.batch_loss(*nn._pad_batch(data, range(len(data)), lm.cfg.pad_id))
    assert abs(nn.eval_lm_loss(lm, data) - float(whole.data)) < 1e-12


def test_eval_lm_loss_rejects_an_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        nn.eval_lm_loss(tiny_lm(), [])


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
    loss, grads, _ = nn._batch_grads(lm, data, np.array([5]))
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
    loss, grads, _ = nn._batch_grads(lm, data, np.array([0, 1]))
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
    submit = partworker._PartWorker.submit
    monkeypatch.setattr(partworker._PartWorker, "submit",
                        lambda self, *a: (submitted.append(1), submit(self, *a))[1])
    with_worker = trained()
    n_submitted = len(submitted)
    assert n_submitted > 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert trained() == with_worker
    assert len(submitted) == n_submitted


def test_two_runs_are_bitwise_equal():
    assert trained() == trained()


def test_two_threads_training_at_once_match_two_sequential_runs():
    # the worker serves one thread at a time; the other computes inline
    cfg = nn.LmTrainConfig(steps=30, lr=1e-3)
    sequential = [trained(seed, cfg=cfg) for seed in (0, 1)]
    out = {}
    threads = [threading.Thread(target=lambda s=seed: out.update({s: trained(s, cfg=cfg)}))
               for seed in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [out.get(0), out.get(1)] == sequential


def test_batches_are_length_sorted_with_fewer_rows_past_the_long_threshold():
    # 24 rows up to the threshold, the last exactly at it, and 12 past it,
    # in shuffled order: three batches of 8 rows, then three of 4
    t = nn.LmTrainConfig.long_threshold
    lengths = [t - 23 + i for i in range(24)] + [t + 1 + i for i in range(12)]
    data = [([1] * lengths[i], 0) for i in np.random.default_rng(0).permutation(len(lengths))]
    by_length = sorted(range(len(data)), key=lambda i: len(data[i][0]))
    expected = sorted([by_length[i:i + 8] for i in range(0, 24, 8)]
                      + [by_length[i:i + 4] for i in range(24, 36, 4)])
    batches = nn._make_batches(data, nn.LmTrainConfig(), np.random.default_rng(1))
    for _ in range(2):  # each epoch is every batch once, in a shuffled order
        epoch = [next(batches).tolist() for _ in expected]
        assert sorted(epoch) == expected


def test_stats_count_the_parts_each_process_computed(monkeypatch):
    data = dataset()
    batches = nn._make_batches(data, CFG, np.random.default_rng(3))
    sizes = [len(next(batches)) for _ in range(CFG.steps)]
    n_parts = sum(len(range(0, n, -(-n // partworker.MAX_PARTS))) for n in sizes)
    parts = nn.pretrain_lm(tiny_lm(), data, CFG, seed=3)["parts"]
    assert parts["parent"] + parts["worker"] == n_parts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    parts = nn.pretrain_lm(tiny_lm(), data, CFG, seed=3)["parts"]
    assert parts == {"parent": n_parts, "worker": 0}


def rows_of_lengths(n):
    return [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(n)]


def assert_bitwise(got, ref):
    assert got[0] == ref[0] and got[1].keys() == ref[1].keys()
    assert all(np.array_equal(got[1][k], ref[1][k]) for k in ref[1])


@needs_two_cores
@pytest.mark.parametrize("rows", range(2, 17))
def test_claimed_parts_are_the_inline_run_bitwise(monkeypatch, rows):
    # parts of ceil(rows / 8) rows, claimed by both processes
    data = rows_of_lengths(rows)
    n_parts = len(range(0, rows, -(-rows // partworker.MAX_PARTS)))
    got = nn._batch_grads(tiny_lm(), data, np.arange(rows))
    assert sum(got[2].values()) == n_parts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ref = nn._batch_grads(tiny_lm(), data, np.arange(rows))
    assert ref[2] == {"parent": n_parts, "worker": 0}
    assert_bitwise(got, ref)


@needs_two_cores
def test_a_row_past_the_tiling_threshold_is_bitwise_with_the_worker_and_inline(monkeypatch):
    # one row long enough for ag.sdpa's tiled causal path, after 7 short ones
    cfg = nn.LmConfig(vocab_size=30, dim=32, blocks=2, heads=2, max_len=ag._TILED_FROM + 16)
    data = rows_of_lengths(7) + [([1 + j % 27 for j in range(ag._TILED_FROM + 9)], 0)]

    def batch_grads():
        lm = nn.DecoderLM(ParamRegistry(), cfg, np.random.default_rng(0))
        return nn._batch_grads(lm, data, np.arange(len(data)))

    got, again = batch_grads(), batch_grads()
    assert got[2]["worker"] >= 1 and sum(got[2].values()) == len(data)
    plans = []
    tiles = ag._tiles
    monkeypatch.setattr(ag, "_tiles", lambda *a: (plans.append(tiles(*a)), plans[-1])[1])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = batch_grads()
    assert inline[2] == {"parent": len(data), "worker": 0}
    # the long row's two blocks: the first over its 137 rows, the final one
    # over its 136 loss columns (``rows``)
    assert sum(len(plan) > 1 for plan in plans) == 2
    assert_bitwise(got, inline)
    assert_bitwise(again, got)


@needs_two_cores
def test_a_slow_parent_leaves_more_parts_to_the_worker(monkeypatch):
    data = rows_of_lengths(8)
    ref = nn._batch_grads(tiny_lm(), data, np.arange(8))  # forks the worker if none is up
    part_grads = nn._part_grads
    monkeypatch.setattr(nn, "_part_grads", lambda *a: (time.sleep(0.1), part_grads(*a))[1])
    got = nn._batch_grads(tiny_lm(), data, np.arange(8))  # the worker's copy is not slowed
    assert got[2]["worker"] > 8 // 3
    assert_bitwise(got, ref)


@needs_two_cores
def test_two_calls_share_one_worker():
    trained()
    first = partworker._workers["LM"].proc.pid
    trained(seed=4)
    worker = partworker._workers["LM"].proc
    assert worker.pid == first and worker.is_alive()


@needs_two_cores
@pytest.mark.parametrize("bad_part", [0, 1])
def test_a_failing_part_is_reraised_and_the_next_call_works(monkeypatch, bad_part):
    ref = trained()  # forks the worker if none is up
    parent_lengths = []
    part_grads = nn._part_grads
    monkeypatch.setattr(nn, "_part_grads", lambda lm, part, total: (
        parent_lengths.append(int(part[1][0])), part_grads(lm, part, total))[1])
    lm = tiny_lm()
    lm.tok.data[28] = np.inf  # a token that only the bad part holds
    rows = [[1, 2, 3, 4], [1, 2, 3, 4, 5]]  # length-sorted, one part each
    rows[bad_part][1] = 28
    with pytest.raises(FloatingPointError) as info:
        nn.pretrain_lm(lm, [(r, 0) for r in rows], nn.LmTrainConfig(steps=1))
    from_worker = any("LM part worker" in n for n in getattr(info.value, "__notes__", []))
    assert from_worker == (len(rows[bad_part]) not in parent_lengths)
    worker = partworker._workers["LM"]
    assert trained() == ref  # the pipe is in step: no stale reply is read
    assert partworker._workers["LM"] is worker


@needs_two_cores
def test_a_failing_parent_part_stops_the_worker_claiming(monkeypatch):
    lm, data = tiny_lm(), rows_of_lengths(8)
    parts = [nn._pad_batch(data, [i], lm.cfg.pad_id) for i in range(8)]
    total = sum(int(nn.next_token_targets(*part)[1].sum()) for part in parts)
    part_grads = nn._part_grads
    monkeypatch.setattr(nn, "_part_grads", lambda *a: (time.sleep(0.05), part_grads(*a))[1])
    # forked with parts that take 50 ms each
    worker = partworker._PartWorker(nn._LM_PARTS, lm)
    claimed = []
    result = worker.result
    worker.result = lambda: (r := result(), claimed.append(sorted(r)))[0]

    def parent_part(fail):
        def run(lm, part, total):
            # until the worker has claimed one part, or, unless this part
            # fails, all the others
            while worker.counter.ends[1] > (7 if fail else 1):
                time.sleep(0.001)
            if fail:
                raise ValueError("bad part")
            return 0.0, {}
        return run

    try:
        monkeypatch.setattr(nn, "_part_grads", parent_part(fail=False))
        partworker._claimed_grads(worker, lm, (parts, total), len(parts))
        monkeypatch.setattr(nn, "_part_grads", parent_part(fail=True))
        with pytest.raises(ValueError, match="bad part"):
            partworker._claimed_grads(worker, lm, (parts, total), len(parts))
    finally:
        worker.close()
    assert claimed[0] == list(range(1, 8))
    assert 1 <= len(claimed[1]) < 7 and claimed[1][-1] == 7


@needs_two_cores
def test_a_dead_worker_raises_instead_of_hanging():
    lm, data = tiny_lm(), dataset()
    worker = partworker._PartWorker(nn._LM_PARTS, lm)
    worker.proc.kill()
    worker.proc.join(timeout=5)
    assert worker.conn.poll(5)  # end of file, since the parent holds no copy of the child's end
    part = nn._pad_batch(data, [0], lm.cfg.pad_id)
    with pytest.raises(RuntimeError, match="worker exited"):
        worker.submit(lm, ([part, part], 10), 2)
        worker.result()
    assert not worker.proc.is_alive()


# fixed ids keep each case's name when a case is added or removed
@pytest.mark.parametrize("field, data, match", [
    ("steps", None, "LmTrainConfig.steps"),
    (None, [], "empty"),
    (None, [([1, 2, 3, 4], 1), ([5, 6], 2)], r"dataset\[1\]"),
    (None, [([7], 0)], r"dataset\[0\]"),
    ("holdout", [([1, 2, 3], 3)], r"holdout\[0\]"),  # data is the held-out set here
    ("holdout", [([1, 2, 3, 4], 1), ([5, 6], 2)], r"holdout\[1\]"),
    # 16 rows of 8 tokens, then one past the LM's max_len of 64
    (None, [([1 + i % 27] * 8, 1) for i in range(16)] + [([5] * 70, 1)],
     r"dataset\[16\]: sequence length 70 exceeds LM max_len 64"),
    ("holdout", [([1, 2, 3, 4], 1), ([5] * 70, 1)],
     r"holdout\[1\]: sequence length 70 exceeds LM max_len 64"),
], ids=["steps-None-LmTrainConfig.steps", "None-data3-empty", r"None-data4-dataset\[1\]",
        r"None-data5-dataset\[0\]", r"holdout-data6-holdout\[0\]",
        r"holdout-data7-holdout\[1\]", "dataset-row-past-max_len", "holdout-row-past-max_len"])
def test_bad_training_input_is_rejected_up_front(field, data, match):
    cfg = nn.LmTrainConfig(steps=2)
    holdout = None
    if field == "holdout":
        holdout, data = data, None
    elif field:
        cfg.steps = -1
    lm = tiny_lm()
    before = lm.digest()
    with pytest.raises(ValueError, match=match):
        nn.pretrain_lm(lm, dataset() if data is None else data, cfg, holdout=holdout)
    assert lm.digest() == before


# ---------------------------------------------------------------------------
# process hygiene: no worker outlives the process that forked it

TRAIN_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from graftkit import autograd as ag, nn, partworker
    from graftkit.params import ParamRegistry

    lm = nn.DecoderLM(ParamRegistry(), nn.LmConfig(vocab_size=30, dim=32, blocks=2, heads=2,
                                                   max_len=64), np.random.default_rng(0))
    data = [([1 + (i + j) % 27 for j in range(5 + i)], 0) for i in range(16)]

    def log(_):
        print(partworker._workers["LM"].proc.pid, flush=True)

    nn.pretrain_lm(lm, data, nn.LmTrainConfig(steps=int(sys.argv[1])), log=log)
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
