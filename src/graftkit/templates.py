"""Canonical language of the synthetic corpus.

Report sentence templates, the question catalog, dialog scaffolds, answer
forms, and the mechanical parsing of that template language (positive
mentions, belief extraction, assessment-vs-report diffs).  Report text is
token-normalized: lowercase words separated by single spaces, with '.' as
its own token, so string surgery on reports is exact.
"""

from __future__ import annotations

# order is canonical everywhere: sampling, labels, diffs, responses
KINDS = ["opacity", "effusion", "edema", "pneumothorax", "cardiomegaly", "device-line", "nodule"]
NO_FINDING = "no-finding"
LABEL_KINDS = KINDS + [NO_FINDING]

# question-only kinds: never generated, but monitored by the QA questions and
# introduced by add-finding alterations
PSEUDO_KINDS = ["atelectasis", "fibrosis", "hernia", "fracture"]

SEVERITIES = ["mild", "moderate", "severe"]

# laterality domain per kind; None means the kind carries no laterality
KIND_LATERALITY = {
    "opacity": ["left", "right", "bilateral"],
    "effusion": ["left", "right", "bilateral"],
    "edema": ["bilateral"],  # pulmonary edema tends to be a bilateral finding
    "pneumothorax": ["left", "right"],
    "cardiomegaly": None,
    "device-line": None,
    "nodule": ["left", "right"],
}

KIND_HAS_SEVERITY = {
    "opacity": True,
    "effusion": True,
    "edema": True,
    "pneumothorax": True,
    "cardiomegaly": True,
    "device-line": False,
    "nodule": True,
}

PHRASES = {
    "opacity": "airspace opacity",
    "effusion": "pleural effusion",
    "edema": "pulmonary edema",
    "pneumothorax": "pneumothorax",
    "cardiomegaly": "cardiomegaly",
    "device-line": "endotracheal tube",
    "nodule": "lung nodule",
    "atelectasis": "atelectasis",
    "fibrosis": "fibrosis",
    "hernia": "hiatal hernia",
    "fracture": "rib fractures",
}

# one distinctive token set per kind, used by mention scanning
KEYWORDS = {
    "opacity": {"opacity"},
    "effusion": {"effusion"},
    "edema": {"edema"},
    "pneumothorax": {"pneumothorax"},
    "cardiomegaly": {"cardiomegaly"},
    "device-line": {"tube"},
    "nodule": {"nodule", "nodules"},
    "atelectasis": {"atelectasis"},
    "fibrosis": {"fibrosis"},
    "hernia": {"hernia"},
    "fracture": {"fracture", "fractures"},
}

NORMAL_IMPRESSION = "no acute cardiopulmonary process ."

_FINDING_STYLES = [
    "there is a {sev} {lat} {phrase} .",
    "a {sev} {lat} {phrase} is seen .",
    "{sev} {lat} {phrase} is present .",
]
_CARDIOMEGALY_STYLES = [
    "there is {sev} cardiomegaly .",
    "{sev} cardiomegaly is present .",
    "{sev} cardiomegaly is seen .",
]
_DEVICE_STYLES = [
    "an endotracheal tube is in place .",
    "endotracheal tube in standard position .",
    "there is an endotracheal tube in place .",
]
_PREAMBLES = [
    "frontal view of the chest .",
    "portable chest radiograph .",
    "comparison with prior study .",
]

NEGATIVE_SENTENCES = {
    "effusion": "no pleural effusion .",
    "cardiomegaly": "the heart size is normal .",
    "edema": "no pulmonary edema .",
    "pneumothorax": "no pneumothorax .",
}
CLEAR_LUNGS = "lungs are clear ."


def finding_sentence(kind: str, laterality: str, severity: str, style: int) -> str:
    if kind == "cardiomegaly":
        return _CARDIOMEGALY_STYLES[style % 3].format(sev=severity)
    if kind == "device-line":
        return _DEVICE_STYLES[style % 3]
    return _FINDING_STYLES[style % 3].format(sev=severity, lat=laterality, phrase=PHRASES[kind])


def impression_sentence(kind: str, laterality: str, severity: str) -> str:
    """Single canonical impression form per finding (alterations rely on it)."""
    if kind == "cardiomegaly":
        return f"{severity} cardiomegaly ."
    if kind == "device-line":
        return "endotracheal tube in place ."
    return f"{severity} {laterality} {PHRASES[kind]} ."


def render_report(findings, style_bits) -> tuple[str, str]:
    """(findings section, impression section) from a findings list.

    ``findings`` is a list of (kind, laterality, severity); ``style_bits``
    a list of small ints drawn once per study that select template variants,
    so the mapping (findings, style) -> text is deterministic.
    """
    bits = list(style_bits) + [0] * 8
    lines = [_PREAMBLES[bits[0] % 3]]
    present = {k for k, _, _ in findings}
    for i, (kind, lat, sev) in enumerate(findings):
        lines.append(finding_sentence(kind, lat, sev, bits[1 + i]))
    if "effusion" not in present:
        lines.append(NEGATIVE_SENTENCES["effusion"])
    if "cardiomegaly" not in present:
        lines.append(NEGATIVE_SENTENCES["cardiomegaly"])
    lung_kinds = {"opacity", "effusion", "edema", "pneumothorax", "nodule"}
    if not (present & lung_kinds):
        lines.append(CLEAR_LUNGS)
    findings_text = " ".join(lines)

    imp = [impression_sentence(k, l, s) for k, l, s in findings]
    if not imp:
        imp = [NORMAL_IMPRESSION]
    else:
        # pertinent negatives for the designed separable pair, style-gated
        if "effusion" not in present and bits[6] % 2:
            imp.append(NEGATIVE_SENTENCES["effusion"])
        if "cardiomegaly" not in present and bits[7] % 2:
            imp.append(NEGATIVE_SENTENCES["cardiomegaly"])
    return findings_text, " ".join(imp)


# ---------------------------------------------------------------------------
# sentence-level surgery and mention parsing


def split_sentences(text: str) -> list[str]:
    out = []
    cur: list[str] = []
    for tok in text.split():
        cur.append(tok)
        if tok == ".":
            out.append(" ".join(cur))
            cur = []
    if cur:
        out.append(" ".join(cur) + " .")
    return out


def join_sentences(sentences) -> str:
    return " ".join(sentences)


def sentence_mentions(sentence: str, kind: str) -> bool:
    toks = set(sentence.split())
    return bool(toks & KEYWORDS[kind])


def _sentence_negated(sentence: str) -> bool:
    toks = sentence.split()
    return "no" in toks or "without" in toks or "normal" in toks or "clear" in toks


def _sentence_laterality(sentence: str) -> str:
    toks = set(sentence.split())
    if "bilateral" in toks:
        return "bilateral"
    if "left" in toks and "right" in toks:
        return "bilateral"
    if "left" in toks:
        return "left"
    if "right" in toks:
        return "right"
    return "n/a"


def positive_mentions(text: str) -> set[tuple[str, str]]:
    """(kind, laterality) units a report text asserts as present."""
    units: set[tuple[str, str]] = set()
    for sent in split_sentences(text):
        if _sentence_negated(sent):
            continue
        for kind in KINDS + PSEUDO_KINDS:
            if sentence_mentions(sent, kind):
                lat = _sentence_laterality(sent) if KIND_LATERALITY.get(kind) else "n/a"
                units.add((kind, lat))
    return units


# ---------------------------------------------------------------------------
# the twelve report-QA questions and their monitored kinds

QA_QUESTIONS = [
    "If there's an endotracheal tube (ET tube) in the chest x-ray, tell me whether "
    "it's mal-positioned or well-positioned. If there's no ET tube, respond 'no'",
    "Is there any evidence of pneumothorax in the chest x-ray? If so, on which side(s)?",
    "Are there any signs of pleural effusion present in the x-ray? If so, on which side(s)?",
    "Are there any visible signs of pulmonary edema in the CXR? If so, on which side(s)?",
    "Are there any signs of pneumonia or lung infection? If so, on which side(s)?",
    "Are there any signs of consolidation or lung infection in this patient's chest x-ray? "
    "If so, on which side(s)?",
    "Are there any signs of atelectasis in the lungs? If so, on which side(s)?",
    "Are there any signs of fibrosis in the lungs? If so, describe it",
    "Are there signs suggestive of a nodule or mass in this patient's chest x-ray? "
    "If so, on which side(s)?",
    "Is the cardiac silhouette size normal or enlarged?",
    "Is a hiatal hernia present? If so, on which side(s)?",
    "Are there any signs of acute skeletal fracture? If so, where?",
]

QA_QUESTION_KINDS = [
    "device-line", "pneumothorax", "effusion", "edema", "opacity", "opacity",
    "atelectasis", "fibrosis", "nodule", "cardiomegaly", "hernia", "fracture",
]


def ideal_answer(kind: str, finding_map: dict[str, tuple[str, str]]) -> str:
    """Ground-truth answer string for a monitored kind.

    ``finding_map`` maps present kinds to (laterality, severity).
    """
    if kind == "device-line":
        return "yes, well-positioned." if kind in finding_map else "no."
    if kind == "cardiomegaly":
        return "enlarged." if kind in finding_map else "normal."
    if kind not in finding_map:
        return "no."
    lat, _ = finding_map[kind]
    if lat == "bilateral":
        return "yes, bilateral."
    if lat in ("left", "right"):
        return f"yes, on the {lat}."
    return "yes."


def parse_answer(kind: str, answer: str) -> tuple[bool, str]:
    """(positive, laterality) read off a model answer for one question."""
    toks = answer.lower().replace(",", " ").replace(".", " ").split()
    if kind == "cardiomegaly":
        return ("enlarged" in toks, "n/a")
    positive = bool(toks) and toks[0] == "yes"
    if not positive:
        return (False, "n/a")
    if KIND_LATERALITY.get(kind) is None:
        return (True, "n/a")
    if "bilateral" in toks:
        return (True, "bilateral")
    if "left" in toks:
        return (True, "left")
    if "right" in toks:
        return (True, "right")
    return (True, "n/a")


def beliefs_from_answers(answers: list[str]) -> set[tuple[str, str]]:
    """Assessment lines -> (kind, laterality) units the assessor holds positive."""
    units: set[tuple[str, str]] = set()
    for kind, ans in zip(QA_QUESTION_KINDS, answers):
        positive, lat = parse_answer(kind, ans)
        if positive:
            units.add((kind, lat))
    return units


def unit_phrase(unit: tuple[str, str]) -> str:
    kind, lat = unit
    if lat in ("left", "right", "bilateral"):
        return f"{lat} {PHRASES[kind]}"
    return PHRASES[kind]


def _ordered(units) -> list[tuple[str, str]]:
    order = {k: i for i, k in enumerate(KINDS + PSEUDO_KINDS)}
    return sorted(units, key=lambda u: (order[u[0]], u[1]))


def diff_responses(beliefs: set, mentions: set) -> tuple[str, str]:
    """(missing-findings response, added-findings response), canonical form."""
    missing = _ordered(beliefs - mentions)
    added = _ordered(mentions - beliefs)
    miss_text = "none ." if not missing else " , ".join(unit_phrase(u) for u in missing) + " ."
    add_text = "none ." if not added else " , ".join(unit_phrase(u) for u in added) + " ."
    return miss_text, add_text


# ---------------------------------------------------------------------------
# dialog scaffolds (templates reproduced bit-exactly in the golden files)

VQA_MARKER = "{aligned LLM tokens}"

VQA_DIALOG_TEMPLATE = """{marker}
[Bot] I'm a helpful Chest X-ray assistant, I can help you interpret
the above image.
[User] What are the findings?
[Bot] {impression}
[User] Based on the above chest x-ray, the findings, and/or your
medical knowledge, answer the following question: {question}
[Bot]"""

_REVIEWER_HEADER = """You are an expert radiologist. These are your responses to a comprehensive assessment of a patient's chest x-ray (CXR).

ASSESSMENT: {assessment}.

A radiology resident has written the following radiology report for the same CXR. RESIDENT'S REPORT: {altered_impression}.

"""

REVIEWER_MISSING_TEMPLATE = _REVIEWER_HEADER + (
    "Are there any findings that you mark positive or abnormal in your assessment "
    "but that the resident either marks absent/negative or simply does not mention? "
    "If so, what are the findings?"
)

REVIEWER_ADDED_TEMPLATE = _REVIEWER_HEADER + (
    "Are there any findings that you mark negative or normal in your assessment "
    "but that the resident marks positive/abnormal in his report? "
    "If so, what are the findings?"
)


def make_vqa_prompt(marker: str, impression: str, question: str) -> str:
    """Literal substitution into the dialog template (no escaping, no trimming)."""
    return VQA_DIALOG_TEMPLATE.format(marker=marker, impression=impression, question=question)


def make_reviewer_prompts(assessment: str, altered_impression: str) -> tuple[str, str]:
    return (
        REVIEWER_MISSING_TEMPLATE.format(assessment=assessment, altered_impression=altered_impression),
        REVIEWER_ADDED_TEMPLATE.format(assessment=assessment, altered_impression=altered_impression),
    )


# ---------------------------------------------------------------------------
# per-finding VQA question bank (presence / location / severity)

PRESENCE_QUESTIONS = {
    "pneumothorax": ["Is a pneumothorax present?", "Is a pneumothorax present in this image?"],
    "effusion": ["Does the patient have a pleural effusion?", "Is a pleural effusion present in this image?"],
    "edema": ["Is a pulmonary edema present in this image?", "Is there evidence of a pulmonary edema?"],
    "opacity": ["Is a lung consolidation or pneumonia present in this image?", "Does the patient have lung opacity?"],
    "nodule": ["Are lung nodules or a mass present?", "Does the patient have lung nodules or a mass?"],
    "cardiomegaly": ["Does the patient have cardiomegaly?"],
    "device-line": ["Is there evidence of an endotracheal tube?"],
}

LOCATION_QUESTIONS = {
    "pneumothorax": "Where is pneumothorax present?",
    "effusion": "What is the location of the pleural effusion, if present?",
    "edema": "Where is pulmonary edema present?",
    "opacity": "What is the location of the lung consolidation or pneumonia, if present?",
    "nodule": "Where are lung nodules or a mass located?",
}

SEVERITY_QUESTIONS = {
    "pneumothorax": "What is the size of pneumothorax, if present?",
    "effusion": "What is the size of pleural effusion, if present?",
    "edema": "What is the severity of the pulmonary edema, if present?",
}

NOT_PRESENT_ANSWER = "it is not present."


def presence_answer(kind: str, finding_map: dict) -> str:
    if kind in ("cardiomegaly", "device-line"):
        return "yes." if kind in finding_map else "no."
    return ideal_answer(kind, finding_map)


def location_answer(kind: str, finding_map: dict) -> str:
    if kind not in finding_map:
        return NOT_PRESENT_ANSWER
    lat, _ = finding_map[kind]
    return f"{lat}." if lat in ("left", "right", "bilateral") else NOT_PRESENT_ANSWER


def severity_answer(kind: str, finding_map: dict) -> str:
    if kind not in finding_map:
        return NOT_PRESENT_ANSWER
    _, sev = finding_map[kind]
    return f"{sev}."


# add-finding alteration sentences, keyed by the primary finding of the case
ADD_FINDING_SENTENCES = {
    NO_FINDING: "medium right pleural effusion .",
    "pneumothorax": "malpositioned endotracheal tube .",
    "effusion": "approximately 1 cm nodule in mid right lung .",
    "edema": "several acute displaced rib fractures .",
    "opacity": "large left pleural effusion .",
    "nodule": "moderate right pneumothorax .",
}

# the kind each added sentence introduces (what a correct review must name)
ADDED_SENTENCE_KIND = {
    NO_FINDING: "effusion",
    "pneumothorax": "device-line",
    "effusion": "nodule",
    "edema": "fracture",
    "opacity": "effusion",
    "nodule": "pneumothorax",
}


def all_template_texts() -> list[str]:
    """Every canonical text the pipeline can emit or consume (vocab source)."""
    texts: list[str] = []
    for kind in KINDS:
        lats = KIND_LATERALITY[kind] or ["n/a"]
        sevs = SEVERITIES if KIND_HAS_SEVERITY[kind] else ["n/a"]
        for lat in lats:
            for sev in sevs:
                for style in range(3):
                    texts.append(finding_sentence(kind, lat, sev, style))
                texts.append(impression_sentence(kind, lat, sev))
    texts.extend(_PREAMBLES)
    texts.extend(NEGATIVE_SENTENCES.values())
    texts.append(CLEAR_LUNGS)
    texts.append(NORMAL_IMPRESSION)
    texts.extend(QA_QUESTIONS)
    texts.append(VQA_DIALOG_TEMPLATE)
    texts.append(REVIEWER_MISSING_TEMPLATE)
    texts.append(REVIEWER_ADDED_TEMPLATE)
    for qs in PRESENCE_QUESTIONS.values():
        texts.extend(qs)
    texts.extend(LOCATION_QUESTIONS.values())
    texts.extend(SEVERITY_QUESTIONS.values())
    texts.extend(ADD_FINDING_SENTENCES.values())
    for kind in KINDS + PSEUDO_KINDS:
        texts.append(PHRASES[kind])
        for lat in ("left", "right", "bilateral"):
            texts.append(f"yes, on the {lat}. {lat}. {unit_phrase((kind, lat))} , none .")
    texts.extend(
        ["yes.", "no.", "normal.", "enlarged.", "yes, well-positioned.", "yes, bilateral.",
         NOT_PRESENT_ANSWER, "mild.", "moderate.", "severe."]
    )
    return texts
