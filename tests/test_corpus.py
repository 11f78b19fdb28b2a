import json
import re

import numpy as np
import pytest

from graftkit import templates as T
from graftkit.corpus import (
    Corpus, CorpusSpec, Finding, augment, build_vocab,
    detokenize, flip_image, generate_corpus, generate_study, load_corpus,
    rotate_image, save_corpus, select_report_text, swap_laterality_words, tokenize,
)
from helpers import TWO_FINDING_PREVALENCE


@pytest.fixture(scope="module")
def vocab():
    return build_vocab()


def test_generate_study_deterministic():
    spec = CorpusSpec(n_studies=1)
    a = generate_study(11, spec, study_id=3)
    b = generate_study(11, spec, study_id=3)
    assert a.image.tobytes() == b.image.tobytes()
    assert a.report == b.report
    assert a.findings == b.findings


def test_no_findings_gives_normal_impression():
    spec = CorpusSpec(prevalence={k: 0.0 for k in T.KINDS})
    s = generate_study(0, spec)
    assert s.findings == []
    assert s.report_impression == T.NORMAL_IMPRESSION
    assert s.labels[T.NO_FINDING] == 1
    assert all(v == 0 for k, v in s.labels.items() if k != T.NO_FINDING)


def test_prevalence_one_always_present():
    spec = CorpusSpec(prevalence={k: 0.0 for k in T.KINDS} | {"effusion": 1.0})
    for i in range(50):
        s = generate_study(2, spec, study_id=i)
        assert s.labels["effusion"] == 1


def test_prevalence_outside_unit_interval_rejected():
    with pytest.raises(ValueError, match="prevalence"):
        CorpusSpec(prevalence={"effusion": 1.5}).validate()


def test_labels_consistent_with_findings():
    spec = CorpusSpec()
    for i in range(40):
        s = generate_study(5, spec, study_id=i)
        kinds = {f.kind for f in s.findings}
        for k in T.KINDS:
            assert s.labels[k] == int(k in kinds)
        assert s.labels[T.NO_FINDING] == int(not kinds)


def test_lateralized_findings_render_laterality_in_both_sections():
    spec = CorpusSpec()
    seen = 0
    for i in range(80):
        s = generate_study(9, spec, study_id=i)
        for f in s.findings:
            if f.laterality in ("left", "right", "bilateral"):
                seen += 1
                assert f.laterality in s.report_findings.split()
                assert f.laterality in s.report_impression.split()
    assert seen > 10


def test_class_balance_within_3_sigma():
    spec = CorpusSpec(n_studies=600)
    corpus = generate_corpus(21, spec)
    for kind, p in spec.prevalence.items():
        n = len(corpus)
        count = sum(s.labels[kind] for s in corpus.studies)
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(count - n * p) <= 3 * sigma, kind


def test_corpus_digest_reproducible():
    spec = CorpusSpec(n_studies=12)
    assert generate_corpus(3, spec).digest() == generate_corpus(3, spec).digest()
    assert generate_corpus(3, spec).digest() != generate_corpus(4, spec).digest()


def test_select_report_text():
    assert select_report_text(("F", "I")) == "I"
    assert select_report_text(("F", "")) == "F"
    with pytest.raises(ValueError):
        select_report_text(("", ""))


def test_tokenize_empty_is_cls_only(vocab):
    assert tokenize("", vocab) == [vocab.id("[CLS]")]


def test_tokenize_truncates_to_max_len(vocab):
    text = " ".join(["effusion"] * 200)
    ids = tokenize(text, vocab, max_len=128)
    assert len(ids) == 128
    assert ids[0] == vocab.id("[CLS]")


def test_tokenize_unknown_maps_to_unk(vocab):
    ids = tokenize("zyzzogeton", vocab)
    assert ids[1] == vocab.id("[UNK]")


def test_roundtrip_on_generated_reports(vocab):
    spec = CorpusSpec()
    for i in range(30):
        s = generate_study(13, spec, study_id=i)
        for text in s.report:
            seq = tokenize(text, vocab)
            assert tokenize(detokenize(seq, vocab), vocab) == seq


def test_every_report_token_in_vocabulary(vocab):
    spec = CorpusSpec(n_studies=50)
    corpus = generate_corpus(17, spec)
    unk = vocab.id("[UNK]")
    for s in corpus.studies:
        for text in s.report:
            assert unk not in tokenize(text, vocab)


FLIP_SEED = 2  # its first draw is below 0.5, so augment flips


def _flip_seed_angle() -> float:
    """Replay ``augment``'s draws from FLIP_SEED: the flip fires, then the angle."""
    rng = np.random.default_rng(FLIP_SEED)
    assert rng.random() < 0.5
    return rng.uniform(-15.0, 15.0)


def test_flip_swaps_words_and_columns():
    spec = CorpusSpec(prevalence={k: 0.0 for k in T.KINDS} | {"effusion": 1.0})
    s = None
    for i in range(50):
        s = generate_study(1, spec, study_id=i)
        if s.findings[0].laterality == "left":
            break
    assert s.findings[0].laterality == "left"
    img2, rep2 = augment(s.image, s.report, np.random.default_rng(FLIP_SEED))
    assert "right" in rep2[1].split()
    assert "left" not in rep2[1].split()
    assert np.array_equal(img2, rotate_image(flip_image(s.image), _flip_seed_angle()))


def test_rotation_zero_is_identity():
    img = np.random.default_rng(0).uniform(0, 1, (64, 64))
    assert np.allclose(rotate_image(img, 0.0), img, atol=1e-12)


def test_augment_deterministic_given_rng_state():
    spec = CorpusSpec()
    s = generate_study(4, spec, study_id=1)
    a = augment(s.image, s.report, np.random.default_rng(42))
    b = augment(s.image, s.report, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_augment_flip_without_text_swap_config():
    spec = CorpusSpec(prevalence={k: 0.0 for k in T.KINDS} | {"effusion": 1.0})
    s = generate_study(1, spec, study_id=0)
    img, rep = augment(s.image, s.report, np.random.default_rng(FLIP_SEED),
                       swap_text_on_flip=False)
    assert rep == s.report
    assert np.array_equal(img, rotate_image(flip_image(s.image), _flip_seed_angle()))


def test_swap_words_involution():
    text = "mild left pleural effusion . no pneumothorax ."
    assert swap_laterality_words(swap_laterality_words(text)) == text


def test_corpus_roundtrip_on_disk(tmp_path):
    corpus = generate_corpus(8, CorpusSpec(n_studies=10))
    manifest = save_corpus(corpus, tmp_path / "c")
    loaded = load_corpus(tmp_path / "c")
    assert loaded.digest() == manifest["digest"] == corpus.digest()
    assert loaded.studies[3].report == corpus.studies[3].report
    assert np.array_equal(loaded.studies[3].image, corpus.studies[3].image)


def test_corpus_load_refuses_tamper(tmp_path):
    corpus = generate_corpus(8, CorpusSpec(n_studies=4))
    save_corpus(corpus, tmp_path / "c")
    blob = (tmp_path / "c" / "images.bin")
    raw = bytearray(blob.read_bytes())
    raw[10] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="digest"):
        load_corpus(tmp_path / "c")


def _saved_corpus(tmp_path):
    corpus = generate_corpus(8, CorpusSpec(n_studies=4))
    save_corpus(corpus, tmp_path / "c")
    return tmp_path / "c", corpus.spec.image_size ** 2 * 8


@pytest.mark.parametrize("name, edit, counts", [
    ("images.bin", lambda data, image: data + data[:image], "163840 bytes.*need 131072"),
    ("images.bin", lambda data, image: data[:-image], "98304 bytes.*need 131072"),
    ("images.bin", lambda data, image: data[:-8], "131064 bytes.*need 131072"),
    ("meta.jsonl", lambda data, image: data + data.splitlines(keepends=True)[0], "5 rows.*need 4"),
])
def test_corpus_load_checks_counts_against_manifest(tmp_path, name, edit, counts):
    # one extra image, one image short, a partial image, one extra meta row
    root, image = _saved_corpus(tmp_path)
    path = root / name
    path.write_bytes(edit(path.read_bytes(), image))
    with pytest.raises(ValueError, match=f"{name} has {counts}"):
        load_corpus(root)


def _edit_json(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _edit_first_row(path, edit):
    first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(json.dumps(edit(json.loads(first))) + "\n" + "".join(rest))


@pytest.mark.parametrize("name, edit, message", [
    ("manifest.json", lambda m: {k: v for k, v in m.items() if k != "vocab"},
     "the manifest has no field 'vocab'"),
    ("manifest.json", lambda m: {**m, "n_studies": "4"},
     "the manifest field 'n_studies' is not of type int"),
    ("manifest.json", lambda m: {**m, "spec": None},
     "the manifest field 'spec' is not a JSON object"),
    ("manifest.json", lambda m: [m], "the manifest is not a JSON object"),
    ("meta.jsonl", lambda d: {k: v for k, v in d.items() if k != "study_id"},
     "row 1 has no field 'study_id'"),
    ("meta.jsonl", lambda d: {**d, "labels": [1]}, "row 1 field 'labels' is not of type dict"),
    ("meta.jsonl", lambda d: {**d, "findings": [["effusion", "left"]]},
     "row 1 field 'findings' item 0 does not hold 3 items"),
    ("manifest.json", lambda m: {**m, "spec": {**m["spec"], "prevalence": []}},
     "the manifest field 'spec' field 'prevalence' is not of type dict"),
    ("manifest.json", lambda m: {**m, "spec": {**m["spec"], "separable": "effusion"}},
     "the manifest field 'spec' field 'separable' is not of type list"),
    ("manifest.json", lambda m: {**m, "spec": {**m["spec"], "n_studies": 4.0}},
     "the manifest field 'spec' field 'n_studies' is not of type int"),
    ("manifest.json", lambda m: {**m, "spec": {**m["spec"], "separable": ["bogus"]}},
     "the manifest field 'spec': unknown finding kind 'bogus' in separable"),
    ("manifest.json", lambda m: {**m, "vocab": [*m["vocab"], 7]},
     "the manifest field 'vocab' item "),
    ("manifest.json", lambda m: {**m, "created": "today"},
     "the manifest has an unknown field 'created'"),
    ("meta.jsonl", lambda d: {**d, "labels": {**d["labels"], "effusion": "1"}},
     "row 1 field 'labels' key 'effusion' is not of type int"),
    ("meta.jsonl", lambda d: {**d, "view": "pa"}, "row 1 has an unknown field 'view'"),
], ids=["no-vocab", "n-studies-str", "spec-null", "manifest-list", "no-study-id",
        "labels-list", "finding-pair", "prevalence-list", "separable-str", "spec-n-float",
        "separable-unknown", "vocab-int", "manifest-extra", "label-str", "row-extra"])
def test_corpus_load_names_the_file_and_a_missing_or_mistyped_field(tmp_path, name, edit,
                                                                    message):
    root, _ = _saved_corpus(tmp_path)
    (_edit_json if name == "manifest.json" else _edit_first_row)(root / name, edit)
    with pytest.raises(ValueError, match=re.escape(f"{root / name}: {message}")):
        load_corpus(root)


def test_corpus_load_names_the_file_and_row_of_json_that_does_not_parse(tmp_path):
    root, _ = _saved_corpus(tmp_path)
    rows = (root / "meta.jsonl").read_text().splitlines(keepends=True)
    (root / "meta.jsonl").write_text("".join([*rows[:2], rows[2][:20] + "\n", *rows[3:]]))
    with pytest.raises(ValueError, match=re.escape(f"{root / 'meta.jsonl'}: row 3: ")):
        load_corpus(root)
    (root / "manifest.json").write_text((root / "manifest.json").read_text()[:40])
    with pytest.raises(ValueError, match=re.escape(f"{root / 'manifest.json'}: Unterminated")):
        load_corpus(root)


def test_corpus_with_a_retired_spec_field_loads(tmp_path):
    """Older corpora store ``max_text_len`` in their spec; it is ignored."""
    root, _ = _saved_corpus(tmp_path)
    _edit_json(root / "manifest.json", lambda m: {**m, "spec": {**m["spec"], "max_text_len": 128}})
    assert load_corpus(root).digest() == generate_corpus(8, CorpusSpec(n_studies=4)).digest()


def test_two_finding_spec_only_two_kinds():
    spec = CorpusSpec(n_studies=64, prevalence=dict(TWO_FINDING_PREVALENCE))
    corpus = generate_corpus(2, spec)
    for s in corpus.studies:
        for f in s.findings:
            assert f.kind in ("effusion", "cardiomegaly")
