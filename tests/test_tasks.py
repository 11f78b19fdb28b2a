import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from graftkit import autograd as ag
from graftkit import partworker
from graftkit import probe as probe_mod
from graftkit import templates as T
from graftkit import vqa as vqa_mod
from graftkit.autograd import Tape, Tensor
from graftkit.clip_stage import (DEFAULT_PROMPT_SETS, ClipConfig, ClipModel, PromptSet,
                                 zero_shot_score_c, zero_shot_scores_c)
from graftkit.corpus import (CorpusSpec, Finding, build_vocab, detokenize, generate_corpus,
                             generate_study, tokenize)
from graftkit.nn import (DecoderLM, ImageEncoder, ImageEncoderConfig, LmConfig, TextEncoder,
                         pad_batch, pool_grid, token_embedding)
from graftkit.params import ParamRegistry
from graftkit.seeding import indexed_rng
from graftkit.probe import (_stratified_subsample, data_efficiency_curve, embed_for_probe,
                            eval_probe, train_probe)
from graftkit.qa import (QaCase, aggregate_grades, alter_impression, alter_impression_text,
                         assessment_text, build_qa_cases, grade_qa_case, run_qa_pipeline)
from graftkit.qformer import (_ITM_SPLIT_ROWS, Phase2Bridge, QFormerConfig, QFormerModel,
                              _self_mask, itm_loss, precompute_grids, zero_shot_score_b,
                              zero_shot_scores_b)
from graftkit.search import (ImageIndexB, ImageIndexC, RankedRetrieval, grade_retrieval,
                             itm_scores, laterality_query, search_b, search_c)
from graftkit.stats import auc
from graftkit.vqa import ElixrBundle, auto_grade_yes_no, map_yes_no, run_vqa, vqa_prompt_body
from helpers import finite_diff_check

FIXTURES = Path(__file__).parent / "fixtures"
needs_two_cores = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                     reason="the worker runs only with two cores")


# --------------------------------------------------------------------------
# prompt golden files


def test_vqa_prompt_matches_golden():
    golden = (FIXTURES / "vqa_prompt_1.txt").read_text()
    assert T.make_vqa_prompt(T.VQA_MARKER, "I", "Q") == golden


def test_vqa_prompt_empty_impression_keeps_structure():
    out = T.make_vqa_prompt(T.VQA_MARKER, "", "Q")
    assert "[Bot] \n[User]" in out
    assert out.count("[User]") == 2


def test_vqa_prompt_substitution_is_literal():
    out = T.make_vqa_prompt(T.VQA_MARKER, "  spaced  ", "{weird}")
    assert "  spaced  " in out
    assert "{weird}" in out


def test_reviewer_prompts_match_goldens():
    missing, added = T.make_reviewer_prompts("A", "R")
    assert missing == (FIXTURES / "qa_prompt_missing.txt").read_text()
    assert added == (FIXTURES / "qa_prompt_added.txt").read_text()


def test_assessment_has_12_lines():
    answers = ["no."] * 12
    text = assessment_text(answers)
    assert len(text.split("\n")) == 12
    missing, _ = T.make_reviewer_prompts(text, "imp")
    slot = missing.split("ASSESSMENT: ")[1].split(".\n\nA radiology resident")[0]
    assert len(slot.split("\n")) == 12


def test_vqa_prompt_body_drops_marker():
    body = vqa_prompt_body("imp", "q?")
    assert not body.startswith(T.VQA_MARKER)
    assert body.startswith("[Bot]")
    assert "imp" in body and "q?" in body


# --------------------------------------------------------------------------
# yes/no mapping


@pytest.mark.parametrize("answer,expected", [
    ("Yes.", "yes"),
    ("no evidence of effusion", "no"),
    ("left-sided", "other"),
    ("YES, on the right.", "yes"),
    ("", "other"),
    ("maybe yes", "other"),
])
def test_map_yes_no(answer, expected):
    assert map_yes_no(answer) == expected


def test_auto_grade_yes_no():
    assert auto_grade_yes_no("yes, on the left.", expected_yes=True) == 1.0
    assert auto_grade_yes_no("no.", expected_yes=True) == 0.0
    assert auto_grade_yes_no("moderate.", expected_yes=True) is None


# --------------------------------------------------------------------------
# impression alteration


def study_with(findings, seed=0):
    spec = CorpusSpec(prevalence={k: 0.0 for k in T.KINDS})
    s = generate_study(seed, spec)
    s.findings = [Finding(*f) for f in findings]
    bits = [0] * 8
    s.report_findings, s.report_impression = T.render_report(findings, bits)
    for f in s.findings:
        s.labels[f.kind] = 1
    s.labels[T.NO_FINDING] = int(not findings)
    return s


def test_alter_control_is_identity():
    s = study_with([("effusion", "left", "mild")])
    case = alter_impression(s, "control", primary="effusion")
    assert case.altered_impression == s.report_impression
    # idempotent: altering the altered text changes nothing
    assert alter_impression_text(case.altered_impression, "effusion", "left",
                                 "control") == case.altered_impression


def test_alter_swap_only_touches_primary_sentence():
    s = study_with([("effusion", "left", "mild"), ("opacity", "right", "severe")])
    case = alter_impression(s, "swap-laterality", primary="effusion")
    assert "right pleural effusion" in case.altered_impression
    assert "severe right airspace opacity" in case.altered_impression  # untouched


def test_alter_swap_is_involution():
    s = study_with([("effusion", "left", "mild"), ("nodule", "right", "severe")])
    once = alter_impression_text(s.report_impression, "effusion", "left", "swap-laterality")
    twice = alter_impression_text(once, "effusion", "right", "swap-laterality")
    assert twice == s.report_impression


def test_alter_swap_invalid_for_bilateral_and_edema():
    s = study_with([("effusion", "bilateral", "mild")])
    with pytest.raises(ValueError):
        alter_impression(s, "swap-laterality", primary="effusion")
    s2 = study_with([("edema", "bilateral", "mild")])
    with pytest.raises(ValueError):
        alter_impression(s2, "swap-laterality", primary="edema")
    s3 = study_with([("cardiomegaly", "n/a", "mild")])
    with pytest.raises(ValueError):
        alter_impression(s3, "swap-laterality", primary="cardiomegaly")


def test_alter_remove_single_finding_gives_normal_sentence():
    s = study_with([("effusion", "left", "mild")])
    case = alter_impression(s, "remove-finding", primary="effusion")
    assert case.altered_impression == T.NORMAL_IMPRESSION


def test_alter_remove_keeps_other_findings():
    s = study_with([("effusion", "left", "mild"), ("cardiomegaly", "n/a", "severe")])
    case = alter_impression(s, "remove-finding", primary="effusion")
    assert "effusion" not in case.altered_impression
    assert "cardiomegaly" in case.altered_impression


def test_alter_remove_rejected_for_normal_study():
    s = study_with([])
    with pytest.raises(ValueError):
        alter_impression(s, "remove-finding", primary=T.NO_FINDING)


def test_alter_add_for_normal_study_drops_normal_sentence():
    s = study_with([])
    case = alter_impression(s, "add-finding", primary=T.NO_FINDING)
    assert case.altered_impression == T.ADD_FINDING_SENTENCES[T.NO_FINDING]
    assert "no acute" not in case.altered_impression


def test_alter_add_mapped_sentences():
    s = study_with([("pneumothorax", "left", "mild")])
    case = alter_impression(s, "add-finding", primary="pneumothorax")
    assert case.altered_impression.endswith("malpositioned endotracheal tube .")
    s2 = study_with([("effusion", "right", "severe")])
    case2 = alter_impression(s2, "add-finding", primary="effusion")
    assert "nodule" in case2.altered_impression


def test_alter_add_invalid_for_unmapped_kind():
    s = study_with([("cardiomegaly", "n/a", "mild")])
    with pytest.raises(ValueError):
        alter_impression(s, "add-finding", primary="cardiomegaly")


def test_build_qa_cases_proportions():
    corpus = generate_corpus(11, CorpusSpec(n_studies=400))
    cases = build_qa_cases(corpus, seed=2)
    assert len(cases) == 48
    by_alt = {}
    for c in cases:
        by_alt[c.alteration] = by_alt.get(c.alteration, 0) + 1
    assert by_alt == {"control": 15, "swap-laterality": 8,
                      "remove-finding": 10, "add-finding": 15}
    by_primary = {}
    for c in cases:
        by_primary[c.primary] = by_primary.get(c.primary, 0) + 1
    assert all(v == 8 for v in by_primary.values())
    edema = [c for c in cases if c.primary == "edema"]
    assert sum(1 for c in edema if c.alteration == "swap-laterality") == 0


# --------------------------------------------------------------------------
# verdict grading and aggregation


def case(alteration, primary="effusion", lat="left"):
    return QaCase(0, alteration, primary, lat, "orig", "altered")


def test_grade_control():
    assert grade_qa_case(case("control"), "none .", "none .") == 1
    assert grade_qa_case(case("control"), "left pleural effusion .", "none .") == 0


def test_grade_remove():
    assert grade_qa_case(case("remove-finding"), "left pleural effusion .", "none .") == 1
    assert grade_qa_case(case("remove-finding"), "none .", "none .") == 0


def test_grade_add():
    c = case("add-finding", primary="edema")  # adds rib fractures
    assert grade_qa_case(c, "none .", "rib fractures .") == 1
    assert grade_qa_case(c, "none .", "none .") == 0


def test_grade_swap_both_routes():
    c = case("swap-laterality", primary="effusion", lat="left")
    assert grade_qa_case(c, "left pleural effusion .", "none .") == 1
    assert grade_qa_case(c, "none .", "right pleural effusion .") == 1
    assert grade_qa_case(c, "none .", "left pleural effusion .") == 0
    assert grade_qa_case(c, "right pleural effusion .", "none .") == 0


def test_aggregate_grades():
    res = aggregate_grades([1, 1, 0, 0.5], [True, True, True, True])
    assert res["sensitivity"] == pytest.approx(0.625)
    res = aggregate_grades([1.0, 1.0, 1.0], [True, True, False])
    assert res == {"accuracy": 1.0, "sensitivity": 1.0, "specificity": 1.0}
    with pytest.raises(ValueError):
        aggregate_grades([None, None], [True, False])
    res = aggregate_grades([1, None, 0], [True, True, False])
    assert res["sensitivity"] == 1.0 and res["specificity"] == 0.0


# --------------------------------------------------------------------------
# mention parsing / belief diffs (reviewer target machinery)


def test_positive_mentions_ignores_negated():
    units = T.positive_mentions("mild left pleural effusion . no pulmonary edema .")
    assert ("effusion", "left") in units
    assert all(k != "edema" for k, _ in units)


def test_beliefs_from_answers_parsing():
    answers = ["no."] * 12
    answers[2] = "yes, on the right."   # effusion
    answers[9] = "enlarged."            # cardiomegaly
    units = T.beliefs_from_answers(answers)
    assert ("effusion", "right") in units
    assert ("cardiomegaly", "n/a") in units
    assert len(units) == 2


def test_diff_responses_canonical():
    beliefs = {("effusion", "right")}
    mentions = {("effusion", "left"), ("fracture", "n/a")}
    missing, added = T.diff_responses(beliefs, mentions)
    assert missing == "right pleural effusion ."
    assert added == "left pleural effusion , rib fractures ."
    assert T.diff_responses(set(), set()) == ("none .", "none .")


# --------------------------------------------------------------------------
# probe


def synth_features(n=300, d=16, sep=2.0, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    feats = rng.normal(0, 1, (n, d))
    feats[:, 0] += sep * labels
    return feats, labels


def test_probe_separable_reaches_auc_one():
    feats, labels = synth_features(sep=8.0)
    probe = train_probe(feats, labels, seed=1)
    assert eval_probe(probe, feats, labels) == 1.0


def test_probe_shuffled_labels_near_half():
    # scored on the rows it did not train on, which its 30 epochs cannot memorise
    feats, labels = synth_features(sep=0.0, seed=3)
    aucs = []
    for rep in range(10):
        rng = np.random.default_rng(rep)
        shuffled = rng.permutation(labels)
        probe = train_probe(feats[:200], shuffled[:200], seed=rep)
        aucs.append(eval_probe(probe, feats[200:], shuffled[200:]))
    assert abs(np.mean(aucs) - 0.5) < 0.1


def test_probe_single_class_rejected():
    feats, _ = synth_features(n=20)
    with pytest.raises(ValueError):
        train_probe(feats, np.ones(20, dtype=int), seed=0)


def test_stratified_subsample_fallback_draws_distinct_rows():
    """With one positive in 1000 rows every random draw of 3 is single-class,
    so the fallback forces one row of each class; the third row is another."""
    labels = np.zeros(1000, dtype=np.int64)
    labels[7] = 1
    idx = _stratified_subsample(indexed_rng(895, 3), labels, 3)
    assert len(set(idx.tolist())) == 3 and 7 in idx.tolist()
    for n_train in (1, 1001):
        with pytest.raises(ValueError, match=f"n_train {n_train} is outside 2..1000"):
            _stratified_subsample(indexed_rng(895, 3), labels, n_train)


@pytest.mark.parametrize("split", ["training", "test"])
def test_data_efficiency_curve_refuses_one_class_labels_before_any_draw(monkeypatch, split):
    feats, labels = synth_features(n=40, seed=1)
    train_labels, test_labels = labels[:30].copy(), labels[30:].copy()
    (train_labels if split == "training" else test_labels)[:] = 0

    def no_draw(*_):
        raise AssertionError("a subsample was drawn")

    monkeypatch.setattr(probe_mod, "_stratified_subsample", no_draw)
    with pytest.raises(ValueError, match=f"the probe's {split} labels hold one class only"):
        data_efficiency_curve(feats[:30], train_labels, feats[30:], test_labels, sizes=(16,),
                              repeats=1)


def test_data_efficiency_curve_monotone_on_clean_features():
    feats, labels = synth_features(n=1400, sep=1.0, seed=5)
    tr_f, te_f = feats[:900], feats[900:]
    tr_l, te_l = labels[:900], labels[900:]
    curve = data_efficiency_curve(tr_f, tr_l, te_f, te_l, sizes=(16, 64, 256),
                                  repeats=4, seed=0)
    assert set(curve) == {16, 64, 256}
    assert all(len(v["aucs"]) == 4 for v in curve.values())
    means = [curve[n]["mean_auc"] for n in (16, 64, 256)]
    dips = [a - b for a, b in zip(means, means[1:]) if b < a]
    assert len(dips) <= 1 and all(d <= 0.02 for d in dips)  # at most one small dip


# --------------------------------------------------------------------------
# search (structural semantics; retrieval quality is covered in acceptance)


@pytest.fixture(scope="module")
def small_world():
    corpus = generate_corpus(7, CorpusSpec(n_studies=30))
    cfg = ClipConfig(image=ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2),
                     text_dim=16, text_blocks=1, text_heads=2, proj_dim=8)
    clip = ClipModel(len(corpus.vocab), cfg, seed=0)
    qf = QFormerModel(QFormerConfig(n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8,
                                    grid_dim=16, text_max_len=32,
                                    vocab_size=len(corpus.vocab)), seed=0)
    index_c = ImageIndexC.build(clip, corpus.studies)
    index_b = ImageIndexB.build(clip, qf, corpus.studies)
    return corpus, clip, qf, index_c, index_b


def test_search_c_returns_sorted_topk(small_world):
    corpus, clip, _, index_c, _ = small_world
    res = search_c("left pleural effusion", index_c, clip, corpus.vocab, k=5)
    scores = [s for _, s in res.ranked]
    assert len(res.ranked) == 5
    assert scores == sorted(scores, reverse=True)


def test_search_c_pool_of_exactly_k(small_world):
    corpus, clip, _, _, _ = small_world
    index = ImageIndexC.build(clip, corpus.studies[:5])
    res = search_c("cardiomegaly", index, clip, corpus.vocab, k=5)
    assert sorted(res.ids()) == [s.study_id for s in corpus.studies[:5]]


def test_search_c_duplicate_images_adjacent_by_id(small_world):
    corpus, clip, _, _, _ = small_world
    s = corpus.studies[0]
    dup = type(s)(99, s.image.copy(), s.findings, s.report_findings,
                  s.report_impression, s.labels)
    index = ImageIndexC.build(clip, [s, dup] + corpus.studies[1:4])
    res = search_c("pleural effusion", index, clip, corpus.vocab, k=5)
    ids = res.ids()
    pos0, pos99 = ids.index(s.study_id), ids.index(99)
    assert abs(pos0 - pos99) == 1 and pos0 < pos99


def test_search_c_matches_brute_force(small_world):
    corpus, clip, _, index_c, _ = small_world
    query = "severe right airspace opacity"
    res = search_c(query, index_c, clip, corpus.vocab, k=5)
    from graftkit.corpus import tokenize

    q = clip.embed_text(tokenize(query, corpus.vocab))
    scores = index_c.embeddings @ q
    order = sorted(range(len(index_c.ids)), key=lambda i: (-scores[i], index_c.ids[i]))
    assert res.ids() == [index_c.ids[i] for i in order[:5]]


def test_c_side_texts_are_cut_to_the_trained_length(small_world):
    """A query or prompt scores exactly as its first ``text_max_len`` tokens
    ([CLS] and 63 words) do, the length ``train_elixr_c`` cut its texts to."""
    corpus, clip, _, index_c, _ = small_world
    n = clip.cfg.text_max_len
    words = [w for w in corpus.vocab.tokens if w.isalpha()]
    long_text = " ".join(words[i % len(words)] for i in range(100))
    cut_text = " ".join(long_text.split()[:n - 1])
    assert len(tokenize(long_text, corpus.vocab, None)) == 101
    assert tokenize(cut_text, corpus.vocab, None) == tokenize(long_text, corpus.vocab, n)
    long_c, cut_c = (search_c(t, index_c, clip, corpus.vocab, k=len(index_c.ids))
                     for t in (long_text, cut_text))
    assert long_c.ranked == cut_c.ranked
    negative = ["no pleural effusion"]
    scores = [zero_shot_scores_c(index_c.embeddings, PromptSet("x", [t], negative), clip,
                                 corpus.vocab) for t in (long_text, cut_text)]
    assert np.array_equal(*scores)


def exhaustive_itm_ranking(query, index, qformer, vocab, k=5) -> list:
    """Oracle for ``search_b``: the matching-head ranking of the whole pool
    (no shortlist), ties id-ascending."""
    probs = itm_scores(tokenize(query, vocab, qformer.cfg.text_max_len), index, qformer)
    order = sorted(range(len(index.ids)), key=lambda i: (-probs[i], index.ids[i]))
    return [(index.ids[i], float(probs[i])) for i in order[:k]]


def test_search_b_equals_exhaustive_on_small_pool(small_world):
    corpus, _, qf, _, index_b = small_world
    for query in ("left pleural effusion", "moderate cardiomegaly", "pneumothorax"):
        two_stage = search_b(query, index_b, qf, corpus.vocab, k=5, stage1=128)
        assert two_stage.ranked == exhaustive_itm_ranking(query, index_b, qf, corpus.vocab, k=5)


def test_search_b_stage1_excludes_candidates(small_world):
    corpus, _, qf, _, index_b = small_world
    res = search_b("left pleural effusion", index_b, qf, corpus.vocab, k=5, stage1=6)
    q_ids = __import__("graftkit.corpus", fromlist=["tokenize"]).tokenize(
        "left pleural effusion", corpus.vocab, qf.cfg.text_max_len)
    t_proj = qf.text_cls_proj(q_ids)
    cosine = (index_b.query_proj @ t_proj).max(axis=1)
    shortlist = sorted(range(len(index_b.ids)),
                       key=lambda i: (-cosine[i], index_b.ids[i]))[:6]
    allowed = {index_b.ids[i] for i in shortlist}
    assert set(res.ids()) <= allowed


def test_search_b_deterministic(small_world):
    corpus, _, qf, _, index_b = small_world
    a = search_b("pneumothorax", index_b, qf, corpus.vocab)
    b = search_b("pneumothorax", index_b, qf, corpus.vocab)
    assert a.ranked == b.ranked


def test_search_empty_pool_rejected(small_world):
    corpus, clip, qf, _, _ = small_world
    with pytest.raises(ValueError):
        search_c("x", ImageIndexC([], np.zeros((0, 8))), clip, corpus.vocab)
    with pytest.raises(ValueError):
        search_b("x", ImageIndexB([], np.zeros((0, 4, 16)), np.zeros((0, 3, 8))),
                 qf, corpus.vocab)


@pytest.mark.parametrize("query", ["", "  ", "#-- *"])
def test_search_rejects_a_query_without_words(small_world, query):
    corpus, clip, qf, index_c, index_b = small_world
    with pytest.raises(ValueError, match="has no words"):
        search_c(query, index_c, clip, corpus.vocab)
    with pytest.raises(ValueError, match="has no words"):
        search_b(query, index_b, qf, corpus.vocab)


def test_indexes_reject_rows_of_unequal_length(small_world):
    _, _, _, index_c, index_b = small_world
    ids = index_b.ids[:2]
    with pytest.raises(ValueError, match="2 ids but 30 embeddings rows"):
        ImageIndexC(ids, index_c.embeddings)
    with pytest.raises(ValueError, match="2 ids but 30 grids rows"):
        ImageIndexB(ids, index_b.grids, index_b.query_proj[:2])
    with pytest.raises(ValueError, match="2 ids but 1 query_proj rows"):
        ImageIndexB(ids, index_b.grids[:2], index_b.query_proj[:1])


@pytest.mark.parametrize("k", [0, -2])
def test_search_rejects_k_or_stage1_below_one(small_world, monkeypatch, k):
    corpus, clip, qf, index_c, index_b = small_world
    calls = []
    for cls in (QFormerModel, TextEncoder):  # rejected before any text is encoded
        monkeypatch.setattr(cls, "forward", lambda self, *a, _f=cls.forward, **kw: (
            calls.append(type(self).__name__), _f(self, *a, **kw))[1])
    with pytest.raises(ValueError, match="k must be at least 1"):
        search_c("pleural effusion", index_c, clip, corpus.vocab, k=k)
    with pytest.raises(ValueError, match="k must be at least 1"):
        search_b("pleural effusion", index_b, qf, corpus.vocab, k=k)
    with pytest.raises(ValueError, match="stage1 must be at least 1"):
        search_b("pleural effusion", index_b, qf, corpus.vocab, stage1=k)
    assert calls == []


def test_retrieval_grading_and_metrics(small_world):
    corpus, *_ = small_world
    spec = laterality_query("effusion", "left")
    assert spec.text == "left pleural effusion"
    by_id = {s.study_id: s for s in corpus.studies}
    result = RankedRetrieval(spec.text, [(s.study_id, 1.0) for s in corpus.studies[:5]])
    graded = grade_retrieval(result, spec, by_id)
    assert all(g in (0, 1, 2) for g in graded.grades)
    m = graded.metrics()
    assert 0.0 <= m["ndcg"] <= 1.0


def test_grade_study_rules(small_world):
    spec = laterality_query("effusion", "left")
    s_exact = study_with([("effusion", "left", "mild")])
    s_wrong = study_with([("effusion", "right", "mild")])
    s_none = study_with([("cardiomegaly", "n/a", "mild")])
    from graftkit.search import grade_study

    assert grade_study(spec, s_exact) == 2
    assert grade_study(spec, s_wrong) == 1
    assert grade_study(spec, s_none) == 0


def test_embed_for_probe_variants(small_world):
    corpus, clip, qf, _, _ = small_world
    img = corpus.studies[0].image
    c_feat = embed_for_probe(img[None], "C", clip)
    assert c_feat.shape == (1, 8)
    b_feat = embed_for_probe(img[None], "B", clip, qf)
    assert b_feat.shape == (1, 3 * 16)
    assert np.array_equal(b_feat, embed_for_probe(img[None], "B", clip, qf))
    with pytest.raises(ValueError):
        embed_for_probe(img[None], "B", clip)
    with pytest.raises(ValueError):
        embed_for_probe(img[None], "X", clip)


def test_embed_for_probe_batch_equals_per_image(small_world):
    corpus, clip, qf, _, _ = small_world
    images = np.stack([s.image for s in corpus.studies[:6]])
    b_rows = np.concatenate([embed_for_probe(im[None], "B", clip, qf) for im in images])
    assert np.array_equal(embed_for_probe(images, "B", clip, qf), b_rows)
    c_rows = np.concatenate([embed_for_probe(im[None], "C", clip) for im in images])
    assert np.abs(embed_for_probe(images, "C", clip) - c_rows).max() <= 1e-12


def test_embed_for_probe_pools_as_the_adapter_was_trained(small_world):
    corpus, clip, _, _, _ = small_world
    qf1 = QFormerModel(QFormerConfig(n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8,
                                     pooled_hw=1, grid_dim=16, text_max_len=32,
                                     vocab_size=len(corpus.vocab)), seed=0)
    images = np.stack([s.image for s in corpus.studies[:4]])
    q_out, _ = qf1.forward(clip.image_encoder.grid_tokens(images, 1), None, "itc")
    assert np.array_equal(embed_for_probe(images, "B", clip, qf1), q_out.data.reshape(4, -1))


# --------------------------------------------------------------------------
# batched retrieval paths against their per-item forms


def test_itm_scores_equal_per_pair_loop_bitwise(small_world):
    corpus, _, qf, _, index_b = small_world
    q_ids = tokenize("moderate cardiomegaly", corpus.vocab, qf.cfg.text_max_len)
    for subset in ([7, 0, 19, 3, 3], None):
        rows = range(len(index_b.ids)) if subset is None else subset
        loop = np.array([qf.itm_matched_probability(index_b.grids[i], q_ids) for i in rows])
        assert np.array_equal(itm_scores(q_ids, index_b, qf, subset=subset), loop)


def test_itm_scores_one_adapter_forward(small_world, monkeypatch):
    corpus, _, qf, _, index_b = small_world
    calls = []
    original = QFormerModel.forward

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(QFormerModel, "forward", counting)
    itm_scores(tokenize("pneumothorax", corpus.vocab, qf.cfg.text_max_len), index_b, qf,
               subset=list(range(12)))
    assert len(calls) == 1


def _record_splits(monkeypatch) -> list[dict]:
    """The parts each process computed, per ``run_parts`` call from now on."""
    splits, run_parts = [], partworker.run_parts

    def recording(*args):
        out = run_parts(*args)
        splits.append(out[2])
        return out

    monkeypatch.setattr(partworker, "run_parts", recording)
    return splits


def _slow_parent_rerank(monkeypatch) -> None:
    """Each matching-head forward in this process, not the worker, first
    sleeps, so that the worker claims the last part."""
    parent, logits = os.getpid(), QFormerModel.itm_logits
    monkeypatch.setattr(QFormerModel, "itm_logits", lambda *a: (
        os.getpid() == parent and time.sleep(0.1), logits(*a))[1])


@needs_two_cores
@pytest.mark.parametrize("n_rows", [1, 15, 16, 17, 128])
def test_itm_scores_equal_with_the_worker_inline_and_per_pair(small_world, monkeypatch, n_rows):
    corpus, _, qf, _, index_b = small_world
    q_ids = tokenize("left pleural effusion", corpus.vocab, qf.cfg.text_max_len)
    subset = [(7 * i + 3) % len(index_b.ids) for i in range(n_rows)]
    loop = np.array([qf.itm_matched_probability(index_b.grids[i], q_ids) for i in subset])
    splits = _record_splits(monkeypatch)
    _slow_parent_rerank(monkeypatch)
    with_worker = itm_scores(q_ids, index_b, qf, subset=subset)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = itm_scores(q_ids, index_b, qf, subset=subset)
    split = n_rows >= _ITM_SPLIT_ROWS  # 17 rows split as 9 and 8
    assert splits == [{"parent": 1, "worker": int(split)}, {"parent": 1, "worker": 0}]
    assert np.array_equal(with_worker, loop) and np.array_equal(inline, loop)


@needs_two_cores
def test_adapters_of_one_config_used_alternately_rerank_with_their_own_weights(small_world,
                                                                                 monkeypatch):
    corpus, _, qf, _, index_b = small_world
    other = QFormerModel(qf.cfg, seed=1)
    ids = tokenize("moderate cardiomegaly", corpus.vocab, qf.cfg.text_max_len)
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        ref = {model: model.itm_probabilities(index_b.grids, ids) for model in (qf, other)}
    assert not np.array_equal(ref[qf][-1], ref[other][-1])
    splits = _record_splits(monkeypatch)
    _slow_parent_rerank(monkeypatch)
    for model in (qf, other, qf, other):
        assert np.array_equal(model.itm_probabilities(index_b.grids, ids), ref[model])
    assert splits == [{"parent": 1, "worker": 1}] * 4


@needs_two_cores
def test_a_rerank_below_the_split_count_forks_no_worker(small_world, monkeypatch):
    corpus, _, qf, _, index_b = small_world
    monkeypatch.delitem(partworker._workers, "itm", raising=False)
    started = []
    for method in ("__init__", "submit"):
        monkeypatch.setattr(partworker._PartWorker, method, lambda *a, _m=method: started.append(_m))
    splits = _record_splits(monkeypatch)
    ids = tokenize("pneumothorax", corpus.vocab, qf.cfg.text_max_len)
    qf.itm_probabilities(index_b.grids[:_ITM_SPLIT_ROWS - 1], ids)
    assert started == [] and "itm" not in partworker._workers
    assert splits == [{"parent": 1, "worker": 0}]


# --------------------------------------------------------------------------
# the matching pass against its unshared, unpruned form


def _unpruned_itm_logits(qf, grids, tokens, lengths) -> Tensor:
    """The matching forward as it ran before the text was shared and the final
    block pruned: every text row runs at the grids' batch through every block,
    text rows included, and the query rows are taken after ``ln_out``."""
    n, n_q = grids.shape[0], qf.cfg.n_queries
    tokens = np.asarray(tokens)
    q_rows, t_rows = np.arange(n_q), np.arange(n_q, n_q + tokens.shape[1])
    grid = Tensor(grids) if qf.grid_proj is None else qf.grid_proj(Tensor(grids))
    x = ag.concat([ag.take(qf.queries, np.broadcast_to(q_rows, (n, n_q))),
                   token_embedding(qf.tok, qf.pos, tokens)], axis=1)
    mask = _self_mask("itm", n_q, lengths, tokens.shape[1])
    for blk in qf.blocks:
        h = blk.ln1(x)
        x = ag.add(x, blk.self_attn(h, h, mask)[0])
        q = ag.take(x, q_rows, axis=1)
        q = ag.add(q, blk.cross_attn(blk.ln_x(q), grid)[0])
        x = ag.concat([q, ag.take(x, t_rows, axis=1)], axis=1)
        x = ag.add(x, blk.mlp(blk.ln2(x)))
    return ag.reduce_mean(qf.itm_head(ag.take(qf.ln_out(x), q_rows, axis=1)), axis=1)


def _unpruned_itm_probabilities(qf, grids, ids) -> np.ndarray:
    n = grids.shape[0]
    z = _unpruned_itm_logits(qf, grids, np.broadcast_to(ids, (n, len(ids))), [len(ids)] * n).data
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e[:, 0] / e.sum(axis=1)


def _itm_adapter(small_world, blocks):
    """small_world's one-block adapter, or a two-block one on the same grids
    (block 0 is then not the final block)."""
    qf = small_world[2]
    return qf if blocks == 1 else QFormerModel(replace(qf.cfg, blocks=blocks), seed=1)


class _Spy:
    """Stands in for a module and records the shape of each call's first input."""

    def __init__(self, module, shapes):
        self.module, self.shapes = module, shapes

    def __call__(self, x, *args, **kwargs):
        self.shapes.append(x.shape)
        return self.module(x, *args, **kwargs)


@pytest.mark.parametrize("blocks", [1, 2])
def test_itm_probabilities_equal_the_unpruned_broadcast_pass_bitwise(small_world, blocks):
    corpus, _, _, _, index_b = small_world
    qf = _itm_adapter(small_world, blocks)
    for query, subset in (("left pleural effusion", None), ("moderate cardiomegaly", [7, 0, 19, 3, 3]),
                          ("pneumothorax", [5]), ("severe right airspace opacity", range(0, 30, 2))):
        ids = tokenize(query, corpus.vocab, qf.cfg.text_max_len)
        grids = index_b.grids if subset is None else index_b.grids[list(subset)]
        assert np.array_equal(qf.itm_probabilities(grids, ids),
                              _unpruned_itm_probabilities(qf, grids, ids)), (query, subset)


def test_itm_probabilities_run_the_text_once_and_prune_the_final_block(small_world, monkeypatch):
    corpus, _, _, _, index_b = small_world
    qf = _itm_adapter(small_world, 2)
    attn_in, mlp_in = [], []
    monkeypatch.setattr(qf.blocks[0], "self_attn", _Spy(qf.blocks[0].self_attn, attn_in))
    monkeypatch.setattr(qf.blocks[-1], "mlp", _Spy(qf.blocks[-1].mlp, mlp_in))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # all grids in one part
    ids = tokenize("left pleural effusion", corpus.vocab, qf.cfg.text_max_len)
    qf.itm_probabilities(index_b.grids, ids)
    n_q, dim = qf.cfg.n_queries, qf.cfg.dim
    assert attn_in == [(1, n_q + len(ids), dim)]       # block 0: one text row set, batch 1
    assert mlp_in == [(len(index_b.ids), n_q, dim)]    # final block: the query rows only


def test_itm_loss_matches_the_unpruned_pass_and_finite_differences(small_world):
    corpus, _, _, _, index_b = small_world
    qf = _itm_adapter(small_world, 2)
    seqs = [tokenize(s.report_impression, corpus.vocab, qf.cfg.text_max_len)
            for s in corpus.studies[:4]]
    tokens, lengths = pad_batch(seqs + [seqs[i] for i in (2, 0, 3, 1)], corpus.vocab.id("[PAD]"))
    assert len(set(lengths)) > 1  # padded rows are part of the check
    grids = np.concatenate([index_b.grids[:4]] * 2)
    matched = [True] * 4 + [False] * 4

    def loss_and_grads(f):
        with Tape() as tape:
            loss = f()
        return float(loss.data), tape.gradients(loss)

    def pruned():
        return itm_loss(qf, grids, tokens, lengths, matched)

    loss, grads = loss_and_grads(pruned)
    ref_loss, ref_grads = loss_and_grads(lambda: ag.cross_entropy(
        _unpruned_itm_logits(qf, grids, tokens, lengths), np.where(matched, 0, 1)))
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert list(grads) == list(ref_grads)
    scale = max(np.abs(g).max() for g in ref_grads.values())
    for name, g in grads.items():
        assert np.abs(g - ref_grads[name]).max() <= 1e-12 * scale, name
    params = [qf.registry[n] for n in ("qf.queries", "qf.tok", "qf.blk0.self.k.w",
                                       "qf.blk1.self.q.w", "qf.blk1.mlp.fc1.w", "qf.itm_head.w")]
    assert finite_diff_check(pruned, params, max_coords=6, seed=3) < 1e-6


def test_index_b_and_precompute_grids_equal_per_image_bitwise(small_world):
    corpus, clip, qf, _, index_b = small_world
    hw = qf.cfg.pooled_hw
    enc = clip.image_encoder
    grids = np.stack([pool_grid(enc.forward(s.image[None]).data[0].reshape(
        enc.cfg.grid, enc.cfg.grid, -1), hw).reshape(-1, 16) for s in corpus.studies])
    assert index_b.ids == [s.study_id for s in corpus.studies]
    assert np.array_equal(index_b.grids, grids)
    assert np.array_equal(index_b.query_proj,
                          np.stack([qf.query_projections(g[None]).data[0] for g in grids]))
    assert np.array_equal(precompute_grids(clip, corpus.studies, hw), grids)


@needs_two_cores
@pytest.mark.parametrize("n", [8, 16, 17])
def test_index_builds_equal_with_the_worker_inline_and_per_image(small_world, monkeypatch, n):
    corpus, clip, qf, _, _ = small_world
    studies = corpus.studies[:n]
    splits = _record_splits(monkeypatch)
    parent, forward = os.getpid(), ImageEncoder.forward
    monkeypatch.setattr(ImageEncoder, "forward", lambda *a: (
        os.getpid() == parent and time.sleep(0.05), forward(*a))[1])  # the worker's half too
    with_worker = ImageIndexC.build(clip, studies), ImageIndexB.build(clip, qf, studies)
    assert splits == [{"parent": 1, "worker": 1}] * 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = ImageIndexC.build(clip, studies), ImageIndexB.build(clip, qf, studies)
    assert splits[2:] == [{"parent": 1, "worker": 0}] * 2
    # one image runs its projection as a vector product, whose low bits
    # differ; two copies of it run as the matrix product of every build
    per_c = np.stack([ImageIndexC.build(clip, [s, s]).embeddings[0] for s in studies])
    per_b = [ImageIndexB.build(clip, qf, [s]) for s in studies]
    for c, b in (with_worker, inline):
        assert c.ids == b.ids == [s.study_id for s in studies]
        assert np.array_equal(c.embeddings, per_c)
        assert np.array_equal(b.grids, np.concatenate([p.grids for p in per_b]))
        assert np.array_equal(b.query_proj, np.concatenate([p.query_proj for p in per_b]))


def test_an_index_of_no_study_is_refused(small_world):
    _, clip, qf, _, _ = small_world
    with pytest.raises(ValueError, match="at least one study"):
        ImageIndexC.build(clip, [])
    with pytest.raises(ValueError, match="at least one study"):
        ImageIndexB.build(clip, qf, [])


def test_index_c_close_to_per_image_embeddings(small_world):
    corpus, clip, _, index_c, _ = small_world
    per_image = np.stack([clip.image_embeddings(s.image[None]).data[0] for s in corpus.studies])
    assert index_c.ids == [s.study_id for s in corpus.studies]
    assert np.abs(index_c.embeddings - per_image).max() <= 1e-12


def _per_prompt_score_c(image, ps, clip, vocab):
    img = clip.image_embeddings(image[None]).data[0]
    pos = np.mean([float(img @ clip.embed_text(tokenize(p, vocab))) for p in ps.positive])
    neg = np.mean([float(img @ clip.embed_text(tokenize(p, vocab))) for p in ps.negative])
    return float(1.0 / (1.0 + np.exp(-(pos - neg))))


def _per_prompt_score_b(grid, ps, qf, vocab):
    q_proj = qf.query_projections(grid[None]).data[0]

    def best(prompts):
        return max(float(np.max(q_proj @ qf.text_cls_proj(tokenize(p, vocab, qf.cfg.text_max_len))))
                   for p in prompts)

    return float(1.0 / (1.0 + np.exp(-(best(ps.positive) - best(ps.negative)))))


def test_zero_shot_batched_prompts_keep_aucs(small_world):
    corpus, clip, qf, index_c, index_b = small_world
    vocab, studies = corpus.vocab, corpus.studies
    checked = 0
    for name, ps in DEFAULT_PROMPT_SETS.items():
        labels = [s.labels[name] for s in studies]
        if len(set(labels)) < 2:
            continue
        per_image_b = [zero_shot_score_b(g, ps, qf, vocab) for g in index_b.grids]
        batched_b = zero_shot_scores_b(index_b.query_proj, ps, qf, vocab)
        assert np.array_equal(batched_b, per_image_b)
        reference_c = [_per_prompt_score_c(s.image, ps, clip, vocab) for s in studies]
        reference_b = [_per_prompt_score_b(g, ps, qf, vocab) for g in index_b.grids]
        for scores, reference in (
                ([zero_shot_score_c(s.image, ps, clip, vocab) for s in studies], reference_c),
                (zero_shot_scores_c(index_c.embeddings, ps, clip, vocab), reference_c),
                (per_image_b, reference_b),
                (batched_b, reference_b)):
            assert np.abs(np.array(scores) - reference).max() <= 1e-12
            assert auc(scores, labels) == auc(reference, labels)
        checked += 1
    assert checked >= 2


def _one_image_score_c(image, ps, clip, vocab):
    """The one-image formula ``zero_shot_score_c`` computed before it wrapped
    the batched scorer."""
    cos = clip.embed_texts([tokenize(p, vocab) for p in ps.positive + ps.negative]) \
        @ clip.image_embeddings(image[None]).data[0]
    n_pos = len(ps.positive)
    return float(1.0 / (1.0 + np.exp(-(np.mean(cos[:n_pos]) - np.mean(cos[n_pos:])))))


def _one_image_score_b(grid, ps, qf, vocab):
    """The one-image formula ``zero_shot_score_b`` computed before it wrapped
    the batched scorer."""
    t_proj = qf.text_cls_projs([tokenize(p, vocab, qf.cfg.text_max_len)
                                for p in ps.positive + ps.negative])
    best = (qf.query_projections(grid[None]).data[0] @ t_proj.T).max(axis=0)
    n_pos = len(ps.positive)
    pos, neg = float(best[:n_pos].max()), float(best[n_pos:].max())
    return float(1.0 / (1.0 + np.exp(-(pos - neg))))


def test_zero_shot_one_image_wrappers_equal_one_image_formulas_bitwise(small_world):
    corpus, clip, qf, _, index_b = small_world
    vocab = corpus.vocab
    for ps in DEFAULT_PROMPT_SETS.values():
        for s, g in zip(corpus.studies, index_b.grids):
            assert zero_shot_score_c(s.image, ps, clip, vocab) == _one_image_score_c(s.image, ps,
                                                                                     clip, vocab)
            assert zero_shot_score_b(g, ps, qf, vocab) == _one_image_score_b(g, ps, qf, vocab)


# --------------------------------------------------------------------------
# VQA prompt length against the LM context


def _vqa_bundle(small_world, lm_max_len, impression=None, aligned=None):
    """A bundle of the small world's models, whose Q-Former serves as either
    adapter unless ``impression`` or ``aligned`` is given."""
    corpus, clip, qf, _, _ = small_world
    lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=len(corpus.vocab), dim=16, blocks=1,
                                             heads=2, max_len=lm_max_len),
                   np.random.default_rng(2))
    lm.freeze()
    bridge = Phase2Bridge(ParamRegistry(), qf.cfg.dim, 16, 16, np.random.default_rng(3))
    return ElixrBundle(clip, impression or qf, aligned or qf, bridge, lm, corpus.vocab)


@pytest.mark.parametrize("adapter, change, message", [
    ("aligned", {"pooled_hw": 1}, "pools grids to 2x2, the aligned adapter to 1x1"),
    ("aligned", {"grid_dim": 8}, "qformer grid_dim must match the image encoder dim"),
    ("impression", {"grid_dim": 8}, "qformer grid_dim must match the image encoder dim")],
    ids=["aligned-pooled_hw", "aligned-grid_dim", "impression-grid_dim"])
def test_a_bundle_refuses_an_adapter_that_does_not_fit_its_grids(small_world, adapter, change,
                                                                 message):
    # prepare pools one grid for the impression adapter and feeds it to both
    qf = small_world[2]
    other = QFormerModel(replace(qf.cfg, **change), seed=0)
    with pytest.raises(ValueError, match=message):
        _vqa_bundle(small_world, 448, **{adapter: other})


def _vqa_prompt_len(small_world, image, question):
    bundle = _vqa_bundle(small_world, 448)
    body = vqa_prompt_body(bundle.impression_for(image), question)
    return len(tokenize(body, bundle.vocab, max_len=None, lead=None))


def test_bundle_review_rejects_prompt_over_the_context(small_world):
    prompt = T.make_reviewer_prompts(assessment_text(["no."] * 12), T.NORMAL_IMPRESSION)[0]
    n = len(tokenize(prompt, build_vocab(), max_len=None, lead=None))
    assert isinstance(_vqa_bundle(small_world, n + 16).review(prompt), str)
    for max_len in (n + 15, n - 10):
        bundle = _vqa_bundle(small_world, max_len)
        with pytest.raises(ValueError, match=f"reviewer prompt of {n} tokens plus 16 answer "
                                             f"tokens exceeds the LM context of {max_len} tokens"):
            bundle.review(prompt)
        assert bundle._review_state is None


def test_run_vqa_prompt_filling_the_context_is_answered(small_world):
    corpus, _, qf, _, _ = small_world
    image, question = corpus.studies[0].image, "is there a pleural effusion ?"
    n = qf.cfg.n_queries + _vqa_prompt_len(small_world, image, question)
    assert isinstance(run_vqa(image, question, _vqa_bundle(small_world, n)), str)


def test_run_vqa_rejects_prompt_over_the_context(small_world):
    corpus, _, qf, _, _ = small_world
    image, question = corpus.studies[0].image, "is there a pleural effusion ?"
    p = _vqa_prompt_len(small_world, image, question)
    bundle = _vqa_bundle(small_world, qf.cfg.n_queries + p - 1)

    def no_decode(*args, **kwargs):
        raise AssertionError("decoding started for an over-long prompt")

    bundle.lm.decode = no_decode
    msg = (f"VQA prompt of {p} tokens plus {qf.cfg.n_queries} soft prompts exceeds "
           f"the LM context of {qf.cfg.n_queries + p - 1} tokens")
    with pytest.raises(ValueError, match=msg):
        run_vqa(image, question, bundle)
    long_question = "is there " + "a very large " * 200 + "effusion ?"
    with pytest.raises(ValueError, match=r"VQA prompt of \d+ tokens plus 3 soft prompts"):
        run_vqa(image, long_question, _vqa_bundle(small_world, 448))


def _per_question_answers(bundle, prepared, questions):
    """The reference: each question forked from the prepared dialog and
    decoded on its own, up to 64 tokens."""
    out = []
    for q in questions:
        ids = tokenize(vqa_prompt_body(prepared.impression, q), bundle.vocab, max_len=None,
                       lead=None)
        out.append(detokenize(bundle.lm.generate(prepared.soft, ids, 64,
                                                 prefix=prepared.dialog), bundle.vocab))
    return out


def test_qa_case_prepares_the_image_once_and_forks_every_question(small_world, monkeypatch):
    corpus, clip, qf, _, _ = small_world
    bundle = _vqa_bundle(small_world, 1400)  # room for 12 answers of up to 64 tokens
    study = corpus.studies[1]
    expected = [run_vqa(study.image, q, bundle) for q in T.QA_QUESTIONS]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # both groups decode here
    calls = {"impression": 0, "encoder": 0, "answers": 0, "reviewer": 0}
    rows = []
    impression, forward, decode = vqa_mod.generate_impression, ImageEncoder.forward, \
        DecoderLM.decode

    def counting_impression(*args, **kwargs):
        calls["impression"] += 1
        return impression(*args, **kwargs)

    def counting_forward(self, images):
        calls["encoder"] += 1
        return forward(self, images)

    def counting_decode(self, state, *args, **kwargs):
        calls["reviewer" if state.soft is None else "answers"] += 1
        rows.append(len(state.ids))
        return decode(self, state, *args, **kwargs)

    monkeypatch.setattr(vqa_mod, "generate_impression", counting_impression)
    monkeypatch.setattr(ImageEncoder, "forward", counting_forward)
    monkeypatch.setattr(DecoderLM, "decode", counting_decode)
    result = run_qa_pipeline(study, study.report_impression, bundle)
    assert calls == {"impression": 1, "encoder": 1, "answers": 2, "reviewer": 2}
    assert rows == [5, 7, 1, 1]  # two packed groups answer the 12 questions
    assert result.answers == expected


@pytest.mark.parametrize("study_id", [1, 4])
def test_packed_answers_equal_per_question_answers(small_world, study_id):
    corpus = small_world[0]
    bundle = _vqa_bundle(small_world, 1400)
    prepared = bundle.prepare(corpus.studies[study_id].image)
    questions = [*T.QA_QUESTIONS, "is there a pleural effusion ?", "Is a pneumothorax present?"]
    for qs in (questions, questions[:1], questions[3:5]):
        assert bundle.answers(prepared, qs) == _per_question_answers(bundle, prepared, qs)


def test_no_questions_get_no_answers_and_run_nothing(small_world, monkeypatch):
    # an empty list used to reach the LM's prefill, which needs a prompt
    corpus = small_world[0]
    bundle = _vqa_bundle(small_world, 1400)
    prepared = bundle.prepare(corpus.studies[1].image)
    ran = []
    monkeypatch.setattr(partworker, "run_parts", lambda *a, **k: ran.append("run_parts"))
    monkeypatch.setattr(DecoderLM, "prefill", lambda *a, **k: ran.append("prefill"))
    assert bundle.answers(prepared, []) == []
    assert ran == []


def _slow_parent_decode(monkeypatch) -> None:
    """Each decode in this process, not the worker, first sleeps, so that
    the worker claims the last group."""
    parent, decode = os.getpid(), DecoderLM.decode
    monkeypatch.setattr(DecoderLM, "decode", lambda *a, **k: (
        os.getpid() == parent and time.sleep(0.05), decode(*a, **k))[1])


QUESTIONS = [*T.QA_QUESTIONS, "is there a pleural effusion ?", "Is a pneumothorax present?"]


@needs_two_cores
@pytest.mark.parametrize("study_id, n", [(1, 12), (4, 12), (4, 14),
                                         (1, vqa_mod._ANSWER_SPLIT_QUESTIONS)])
def test_split_answers_equal_with_the_worker_inline_and_per_question(small_world, monkeypatch,
                                                                     study_id, n):
    corpus = small_world[0]
    bundle = _vqa_bundle(small_world, 1400)
    prepared = bundle.prepare(corpus.studies[study_id].image)
    qs = QUESTIONS[:n]
    splits = _record_splits(monkeypatch)
    _slow_parent_decode(monkeypatch)
    with_worker = bundle.answers(prepared, qs)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = bundle.answers(prepared, qs)
    assert splits == [{"parent": 1, "worker": 1}, {"parent": 2, "worker": 0}]
    assert with_worker == inline == _per_question_answers(bundle, prepared, qs)


def test_answers_split_into_two_groups_balanced_by_their_tokens_past_the_dialog():
    dialog = (1, 2, 3)
    prompts = [(1, 2, 3, *range(10, 10 + k)) for k in (4, 2, 1, 1, 3)]
    assert vqa_mod._answer_groups(prompts, dialog) == [prompts[:2], prompts[2:]]  # 6 and 5
    tie = [(1, 2, 3, *range(10, 10 + k)) for k in (5, 1, 1, 1, 3)]  # 5 | 6 or 6 | 5
    assert vqa_mod._answer_groups(tie, dialog) == [tie[:1], tie[1:]]
    assert vqa_mod._answer_groups(prompts[:1], dialog) == [prompts[:1]]
    qa_prompts = [tokenize(vqa_prompt_body("no acute findings .", q), build_vocab(),
                           max_len=None, lead=None) for q in T.QA_QUESTIONS]
    dialog = tokenize(vqa_prompt_body("no acute findings .", ""), build_vocab(), max_len=None,
                      lead=None)
    assert [len(g) for g in vqa_mod._answer_groups(qa_prompts, dialog)] == [5, 7]


@needs_two_cores
def test_fewer_questions_than_the_split_count_fork_no_worker(small_world, monkeypatch):
    corpus = small_world[0]
    bundle = _vqa_bundle(small_world, 1400)
    prepared = bundle.prepare(corpus.studies[1].image)
    monkeypatch.delitem(partworker._workers, "lm-answers", raising=False)
    started = []
    for method in ("__init__", "submit"):
        monkeypatch.setattr(partworker._PartWorker, method, lambda *a, _m=method: started.append(_m))
    splits = _record_splits(monkeypatch)
    one = bundle.answer(prepared, QUESTIONS[0])
    few = bundle.answers(prepared, QUESTIONS[:vqa_mod._ANSWER_SPLIT_QUESTIONS - 1])
    assert started == [] and "lm-answers" not in partworker._workers
    assert splits == [{"parent": 1, "worker": 0}] * 2
    assert [one, *few] == _per_question_answers(bundle, prepared, [QUESTIONS[0],
                                                                   *QUESTIONS[:len(few)]])


@needs_two_cores
def test_answers_after_a_reload_of_the_lm_values_equal_with_the_worker_and_inline(small_world,
                                                                                monkeypatch):
    # two writes between steps leave the parent's versions two on from the
    # fork's; the worker takes the parent's versions with the weights
    corpus = small_world[0]
    bundle = _vqa_bundle(small_world, 1400)
    bundle.answers(bundle.prepare(corpus.studies[0].image), QUESTIONS)
    other = DecoderLM(ParamRegistry(), bundle.lm.cfg, np.random.default_rng(7)).reg.snapshot()
    for _ in range(2):
        bundle.lm.reg.load_values(other)
    prepared = bundle.prepare(corpus.studies[4].image)
    splits = _record_splits(monkeypatch)
    _slow_parent_decode(monkeypatch)
    with_worker = bundle.answers(prepared, QUESTIONS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = bundle.answers(prepared, QUESTIONS)
    assert splits == [{"parent": 1, "worker": 1}, {"parent": 2, "worker": 0}]
    assert with_worker == inline


@needs_two_cores
def test_a_stale_prepared_image_is_refused_before_anything_is_submitted(small_world,
                                                                       monkeypatch):
    corpus = small_world[0]
    bundle = _vqa_bundle(small_world, 1400)
    stale = bundle.prepare(corpus.studies[2].image)
    bundle.answers(stale, QUESTIONS)  # the worker is up
    bundle.lm.reg.load_values(DecoderLM(ParamRegistry(), bundle.lm.cfg,
                                        np.random.default_rng(7)).reg.snapshot())
    submitted, submit = [], partworker._PartWorker.submit
    monkeypatch.setattr(partworker._PartWorker, "submit", lambda *a: (
        submitted.append(a[0].kind.name), submit(*a))[1])
    with pytest.raises(ValueError, match="decoding state was built at other LM parameter versions"):
        bundle.answers(stale, QUESTIONS)
    assert submitted == []
    worker = partworker._workers["lm-answers"]
    splits = _record_splits(monkeypatch)
    _slow_parent_decode(monkeypatch)
    fresh = bundle.prepare(corpus.studies[2].image)
    assert bundle.answers(fresh, QUESTIONS) == _per_question_answers(bundle, fresh, QUESTIONS)
    assert partworker._workers["lm-answers"] is worker  # the pipe stayed in step
    assert submitted == ["lm-answers"] and splits == [{"parent": 1, "worker": 1}]


def test_review_decodes_from_the_prompt_state_without_rerunning_a_token(small_world):
    bundle = _vqa_bundle(small_world, 1400)
    prompts = T.make_reviewer_prompts(assessment_text(["no."] * 12), T.NORMAL_IMPRESSION)
    fed, runs = [], []
    run, extend = bundle.lm._forward, bundle.lm.extend

    def counting_forward(emb, *args, **kwargs):
        runs.append(emb.shape[0] * emb.shape[1])
        return run(emb, *args, **kwargs)

    def counting_extend(state, tokens):
        fed.extend(np.asarray(tokens)[:, 0].tolist())
        return extend(state, tokens)

    bundle.lm._forward, bundle.lm.extend = counting_forward, counting_extend
    last = None
    for prompt in prompts:
        ids = tokenize(prompt, bundle.vocab, max_len=None, lead=None)
        fed.clear()
        runs.clear()
        response = bundle.review(prompt)
        ran, ran_rows = list(fed), sum(runs)
        out = bundle.lm.generate(None, ids, 32)
        assert response == detokenize(out, bundle.vocab)
        # decoding runs only the response's own tokens (its last one too,
        # unless max_new stopped it), never the prompt's last token again
        assert ran == out[: len(ran)] and len(ran) == min(len(out), 31)
        # and the prompt runs once, past what it shares with the last prompt
        shared = 0 if last is None else next(
            i for i, (x, y) in enumerate(zip(last, ids)) if x != y)
        assert ran_rows == len(ids) - shared + len(ran)
        assert bundle._review_state.ids == (tuple(ids),)
        last = ids
    assert shared > 300  # the two templates share the header and assessment


def test_review_after_another_case_equals_a_fresh_review(small_world):
    corpus = small_world[0]
    study_a, study_b = corpus.studies[2], corpus.studies[5]
    shared = _vqa_bundle(small_world, 1400)
    run_qa_pipeline(study_a, study_a.report_impression, shared)
    after = run_qa_pipeline(study_b, T.NORMAL_IMPRESSION, shared)
    fresh = run_qa_pipeline(study_b, T.NORMAL_IMPRESSION, _vqa_bundle(small_world, 1400))
    assert (after.answers, after.response_missing, after.response_added) == (
        fresh.answers, fresh.response_missing, fresh.response_added)
    # the next case's first prompt forks from the last one: only its own tail runs
    runs = []
    run = shared.lm._forward

    def counting(emb, *args, **kwargs):
        runs.append(emb.shape[1])
        return run(emb, *args, **kwargs)

    shared.lm._forward = counting
    assert shared.review(fresh.prompt_missing) == fresh.response_missing
    n = len(tokenize(fresh.prompt_missing, shared.vocab, max_len=None, lead=None))
    header = len(tokenize(T.REVIEWER_MISSING_TEMPLATE.split("{assessment}")[0], shared.vocab,
                          max_len=None, lead=None))
    assert 1 <= runs[0] <= n - header


def test_lm_states_from_before_a_reload_of_the_lm_values_are_not_forked_from(small_world):
    """Frozen LM parameters can still be overwritten (``load_values``): a
    state built before is refused by ``prefill`` and dropped by ``review``."""
    corpus = small_world[0]
    bundle = _vqa_bundle(small_world, 1400)
    other = _vqa_bundle(small_world, 1400)
    other.lm.reg.load_values(DecoderLM(ParamRegistry(), other.lm.cfg,
                                       np.random.default_rng(7)).reg.snapshot())
    prompt, next_prompt = T.make_reviewer_prompts(assessment_text(["no."] * 12),
                                                  T.NORMAL_IMPRESSION)
    bundle.review(prompt)
    stale = bundle._review_state
    prepared = bundle.prepare(corpus.studies[0].image)
    bundle.lm.reg.load_values(other.lm.reg.snapshot())
    assert bundle.lm.frozen
    ids = tokenize(next_prompt, bundle.vocab, max_len=None, lead=None)
    with pytest.raises(ValueError, match="other LM parameter versions"):
        bundle.lm.prefill(None, [ids], prefix=stale)
    with pytest.raises(ValueError, match="other LM parameter versions"):
        bundle.answer(prepared, "is there a pleural effusion ?")
    runs = []
    run = bundle.lm._forward

    def counting(emb, *args, **kwargs):
        runs.append(emb.shape[1])
        return run(emb, *args, **kwargs)

    bundle.lm._forward = counting
    assert bundle.review(next_prompt) == other.review(next_prompt)
    assert runs[0] == len(ids)  # the whole prompt ran again
    assert bundle._review_state.versions == bundle.lm.versions()
