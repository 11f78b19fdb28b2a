from pathlib import Path

import numpy as np
import pytest

from graftkit import templates as T
from graftkit.clip_stage import DEFAULT_PROMPT_SETS, ClipConfig, ClipModel, zero_shot_score_c
from graftkit.corpus import (CorpusSpec, Finding, build_vocab, generate_corpus, generate_study,
                             tokenize)
from graftkit.nn import DecoderLM, ImageEncoderConfig, LmConfig, pool_grid
from graftkit.params import ParamRegistry
from graftkit.probe import (ProbeConfig, curve_is_monotone, data_efficiency_curve,
                            embed_for_probe, eval_probe, train_probe)
from graftkit.qa import (QaCase, aggregate_grades, alter_impression, alter_impression_text,
                         assessment_text, build_qa_cases, grade_qa_case, load_grades_csv,
                         save_grades_csv)
from graftkit.qformer import (Phase2Bridge, QFormerConfig, QFormerModel, precompute_grids,
                              zero_shot_score_b)
from graftkit.search import (ImageIndexB, ImageIndexC, RankedRetrieval,
                             exhaustive_itm_ranking, grade_retrieval, itm_scores,
                             laterality_query, search_b, search_c)
from graftkit.stats import auc
from graftkit.vqa import ElixrBundle, auto_grade_yes_no, map_yes_no, run_vqa, vqa_prompt_body

FIXTURES = Path(__file__).parent / "fixtures"


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
    case = alter_impression(s, "control")
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
    case = alter_impression(s, "remove-finding")
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
    case = alter_impression(s, "add-finding")
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


def test_grades_csv_roundtrip():
    rows = [("c1", "q1", 1.0), ("c1", "q2", None), ("c2", "q1", 0.5)]
    text = save_grades_csv(rows)
    assert load_grades_csv(text) == rows
    with pytest.raises(ValueError):
        load_grades_csv("case_id,question_id,grade\nc1,q1,0.7\n")


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
    probe = train_probe(feats, labels, ProbeConfig(epochs=20, seed=1))
    assert eval_probe(probe, feats, labels) == 1.0


def test_probe_shuffled_labels_near_half():
    feats, labels = synth_features(sep=0.0, seed=3)
    aucs = []
    for rep in range(10):
        rng = np.random.default_rng(rep)
        shuffled = rng.permutation(labels)
        probe = train_probe(feats, shuffled, ProbeConfig(epochs=5, seed=rep))
        aucs.append(eval_probe(probe, feats, shuffled))
    assert abs(np.mean(aucs) - 0.5) < 0.1


def test_probe_single_class_rejected():
    feats, _ = synth_features(n=20)
    with pytest.raises(ValueError):
        train_probe(feats, np.ones(20, dtype=int), ProbeConfig())


def test_data_efficiency_curve_monotone_on_clean_features():
    feats, labels = synth_features(n=1400, sep=1.0, seed=5)
    tr_f, te_f = feats[:900], feats[900:]
    tr_l, te_l = labels[:900], labels[900:]
    curve = data_efficiency_curve(tr_f, tr_l, te_f, te_l, sizes=(16, 64, 256),
                                  repeats=4, cfg=ProbeConfig(epochs=10), seed=0)
    assert set(curve) == {16, 64, 256}
    assert all(len(v["aucs"]) == 4 for v in curve.values())
    assert curve_is_monotone(curve, slack=0.02, max_inversions=1)


def test_curve_is_monotone_rules():
    good = {16: {"mean_auc": 0.7}, 64: {"mean_auc": 0.8}, 256: {"mean_auc": 0.795}}
    assert curve_is_monotone(good, slack=0.01, max_inversions=1)
    bad = {16: {"mean_auc": 0.9}, 64: {"mean_auc": 0.8}, 256: {"mean_auc": 0.85}}
    assert not curve_is_monotone(bad, slack=0.01)


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


def test_search_b_equals_exhaustive_on_small_pool(small_world):
    corpus, _, qf, _, index_b = small_world
    for query in ("left pleural effusion", "moderate cardiomegaly", "pneumothorax"):
        two_stage = search_b(query, index_b, qf, corpus.vocab, k=5, stage1=128)
        oracle = exhaustive_itm_ranking(query, index_b, qf, corpus.vocab, k=5)
        assert two_stage.ranked == oracle.ranked


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
    c_feat = embed_for_probe(img, "C", clip)
    assert c_feat.shape == (8,)
    b_feat = embed_for_probe(img, "B", clip, qf)
    assert b_feat.shape == (3 * 16,)
    assert np.array_equal(b_feat, embed_for_probe(img, "B", clip, qf))
    with pytest.raises(ValueError):
        embed_for_probe(img, "B", clip)
    with pytest.raises(ValueError):
        embed_for_probe(img, "X", clip)


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


def test_index_b_and_precompute_grids_equal_per_image_bitwise(small_world):
    corpus, clip, qf, _, index_b = small_world
    hw = qf.cfg.pooled_hw
    grids = np.stack([pool_grid(clip.image_encoder.encode_image(s.image), hw).reshape(-1, 16)
                      for s in corpus.studies])
    assert index_b.ids == [s.study_id for s in corpus.studies]
    assert np.array_equal(index_b.grids, grids)
    assert np.array_equal(index_b.query_proj, np.stack([qf.image_query_proj(g) for g in grids]))
    assert np.array_equal(precompute_grids(clip, corpus.studies, hw), grids)


def test_index_c_close_to_per_image_embeddings(small_world):
    corpus, clip, _, index_c, _ = small_world
    per_image = np.stack([clip.embed_image(s.image) for s in corpus.studies])
    assert index_c.ids == [s.study_id for s in corpus.studies]
    assert np.abs(index_c.embeddings - per_image).max() <= 1e-12


def _per_prompt_score_c(image, ps, clip, vocab):
    img = clip.embed_image(image)
    pos = np.mean([float(img @ clip.embed_text(tokenize(p, vocab))) for p in ps.positive])
    neg = np.mean([float(img @ clip.embed_text(tokenize(p, vocab))) for p in ps.negative])
    return float(1.0 / (1.0 + np.exp(-(pos - neg))))


def _per_prompt_score_b(grid, ps, qf, vocab):
    q_proj = qf.image_query_proj(grid)

    def best(prompts):
        return max(float(np.max(q_proj @ qf.text_cls_proj(tokenize(p, vocab, qf.cfg.text_max_len))))
                   for p in prompts)

    return float(1.0 / (1.0 + np.exp(-(best(ps.positive) - best(ps.negative)))))


def test_zero_shot_batched_prompts_keep_aucs(small_world):
    corpus, clip, qf, _, index_b = small_world
    vocab, studies = corpus.vocab, corpus.studies
    checked = 0
    for name, ps in DEFAULT_PROMPT_SETS.items():
        labels = [s.labels[name] for s in studies]
        if len(set(labels)) < 2:
            continue
        for batched, reference in (
                ([zero_shot_score_c(s.image, ps, clip, vocab) for s in studies],
                 [_per_prompt_score_c(s.image, ps, clip, vocab) for s in studies]),
                ([zero_shot_score_b(g, ps, qf, vocab) for g in index_b.grids],
                 [_per_prompt_score_b(g, ps, qf, vocab) for g in index_b.grids])):
            assert np.abs(np.array(batched) - reference).max() <= 1e-12
            assert auc(batched, labels) == auc(reference, labels)
        checked += 1
    assert checked >= 2


# --------------------------------------------------------------------------
# VQA prompt length against the LM context


def _vqa_bundle(small_world, lm_max_len):
    corpus, clip, qf, _, _ = small_world
    lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=len(corpus.vocab), dim=16, blocks=1,
                                             heads=2, max_len=lm_max_len),
                   np.random.default_rng(2))
    lm.freeze()
    bridge = Phase2Bridge(ParamRegistry(), qf.cfg.dim, 16, 16, np.random.default_rng(3))
    return ElixrBundle(clip, qf, qf, bridge, lm, corpus.vocab)


def _vqa_prompt_len(small_world, image, question):
    bundle = _vqa_bundle(small_world, 448)
    body = vqa_prompt_body(bundle.impression_for(image), question)
    return len(tokenize(body, bundle.vocab, max_len=None, lead=None))


def test_run_vqa_prompt_filling_the_context_is_answered(small_world):
    corpus, _, qf, _, _ = small_world
    image, question = corpus.studies[0].image, "is there a pleural effusion ?"
    n = qf.cfg.n_queries + _vqa_prompt_len(small_world, image, question)
    assert isinstance(run_vqa(image, question, _vqa_bundle(small_world, n), max_new=3), str)


def test_run_vqa_rejects_prompt_over_the_context(small_world):
    corpus, _, qf, _, _ = small_world
    image, question = corpus.studies[0].image, "is there a pleural effusion ?"
    p = _vqa_prompt_len(small_world, image, question)
    bundle = _vqa_bundle(small_world, qf.cfg.n_queries + p - 1)

    def no_decode(*args, **kwargs):
        raise AssertionError("decoding started for an over-long prompt")

    bundle.lm.generate = no_decode
    msg = (f"VQA prompt of {p} tokens plus {qf.cfg.n_queries} soft prompts exceeds "
           f"the LM context of {qf.cfg.n_queries + p - 1} tokens")
    with pytest.raises(ValueError, match=msg):
        run_vqa(image, question, bundle)
    long_question = "is there " + "a very large " * 200 + "effusion ?"
    with pytest.raises(ValueError, match=r"VQA prompt of \d+ tokens plus 3 soft prompts"):
        run_vqa(image, long_question, _vqa_bundle(small_world, 448))
