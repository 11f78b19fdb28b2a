"""Procedural paired image/report studies, tokenizer, and augmentation.

Each study is a pure function of (root seed, study index, corpus spec): an
image with one visual motif per finding, a two-section report rendered from
templates, and a binary label vector.  The corpus digest is reproducible
across machines.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import templates as T

IMAGE_SIZE = 64
MAX_TEXT_LEN = 128

PAD, CLS, BOS, EOS, SEP, UNK, IMG = "[PAD]", "[CLS]", "[BOS]", "[EOS]", "[SEP]", "[UNK]", "[IMG]"
RESERVED = [PAD, CLS, BOS, EOS, SEP, UNK, IMG]

_TOKEN_RE = re.compile(r"\[[a-z0-9]+\]|[a-z0-9']+(?:-[a-z0-9']+)*|[.,:;?!()/{}]")


@dataclass(frozen=True)
class Finding:
    kind: str
    laterality: str  # left / right / bilateral / n/a
    severity: str    # mild / moderate / severe / n/a


@dataclass
class SyntheticStudy:
    study_id: int
    image: np.ndarray  # (64, 64) float in [0, 1]
    findings: list[Finding]
    report_findings: str
    report_impression: str
    labels: dict[str, int]

    @property
    def report(self) -> tuple[str, str]:
        return (self.report_findings, self.report_impression)

    def finding_map(self) -> dict[str, tuple[str, str]]:
        return {f.kind: (f.laterality, f.severity) for f in self.findings}


DEFAULT_PREVALENCE = {
    "opacity": 0.20,
    "effusion": 0.40,
    "edema": 0.15,
    "pneumothorax": 0.15,
    "cardiomegaly": 0.35,
    "device-line": 0.20,
    "nodule": 0.15,
}

TWO_FINDING_PREVALENCE = {k: 0.0 for k in T.KINDS} | {"effusion": 0.55, "cardiomegaly": 0.45}


@dataclass
class CorpusSpec:
    n_studies: int = 512
    prevalence: dict = field(default_factory=lambda: dict(DEFAULT_PREVALENCE))
    image_size: int = IMAGE_SIZE
    max_text_len: int = MAX_TEXT_LEN
    separable: tuple = ("effusion", "cardiomegaly")

    def validate(self) -> None:
        for kind, p in self.prevalence.items():
            if kind not in T.KINDS:
                raise ValueError(f"unknown finding kind {kind!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"prevalence for {kind} outside [0, 1]: {p}")

    def to_json(self) -> dict:
        return {
            "n_studies": self.n_studies,
            "prevalence": dict(self.prevalence),
            "image_size": self.image_size,
            "max_text_len": self.max_text_len,
            "separable": list(self.separable),
        }

    @staticmethod
    def from_json(d: dict) -> "CorpusSpec":
        spec = CorpusSpec(
            n_studies=int(d.get("n_studies", 512)),
            prevalence={k: float(v) for k, v in d.get("prevalence", DEFAULT_PREVALENCE).items()},
            image_size=int(d.get("image_size", IMAGE_SIZE)),
            max_text_len=int(d.get("max_text_len", MAX_TEXT_LEN)),
            separable=tuple(d.get("separable", ("effusion", "cardiomegaly"))),
        )
        spec.validate()
        return spec


# ---------------------------------------------------------------------------
# image rendering: one motif per finding


def _grid(n):
    y, x = np.mgrid[0:n, 0:n]
    return x.astype(np.float64), y.astype(np.float64)


def _blob(n, cx, cy, sx, sy):
    x, y = _grid(n)
    return np.exp(-(((x - cx) ** 2) / (2 * sx * sx) + ((y - cy) ** 2) / (2 * sy * sy)))


_SEV_SCALE = {"mild": 0.6, "moderate": 1.0, "severe": 1.4, "n/a": 1.0}


def _render_motif(img, kind, lat, sev, jit):
    n = img.shape[0]
    s = _SEV_SCALE[sev] * (n / 64.0)
    sides = {"left": [0.25], "right": [0.75], "bilateral": [0.25, 0.75], "n/a": [0.5]}[lat]
    for fx in sides:
        cx = fx * n + jit[0]
        if kind == "effusion":
            img += 0.50 * _blob(n, cx, 0.80 * n + jit[1], 7 * s, 5.5 * s)
        elif kind == "opacity":
            img += 0.30 * _blob(n, cx, 0.45 * n + jit[1], 5 * s, 5 * s)
        elif kind == "edema":
            img += 0.18 * _blob(n, cx, 0.5 * n + jit[1], 9 * s, 9 * s)
        elif kind == "pneumothorax":
            edge = 0.12 * n if lat == "left" else 0.88 * n
            img -= 0.35 * _blob(n, edge + jit[0], 0.22 * n + jit[1], 4 * s, 6 * s)
        elif kind == "cardiomegaly":
            img += 0.40 * _blob(n, 0.5 * n + jit[0], 0.62 * n + jit[1], (10 + 4 * s), (8 + 3 * s))
        elif kind == "device-line":
            col = 0.56 * n + jit[0]
            x, y = _grid(n)
            band = np.exp(-((x - col) ** 2) / (2 * 0.8 ** 2))
            band[int(0.55 * n):, :] = 0.0
            img += 0.5 * band
        elif kind == "nodule":
            img += 0.55 * _blob(n, cx + jit[2], 0.4 * n + jit[3], 1.8 * s, 1.8 * s)
        else:
            raise ValueError(f"no motif for kind {kind!r}")


def render_image(findings, rng, size=IMAGE_SIZE) -> np.ndarray:
    x, y = _grid(size)
    img = 0.35 + 0.10 * (y / size)  # faint vertical gradient, torso-ish base
    img -= 0.12 * _blob(size, 0.27 * size, 0.42 * size, 8 * size / 64, 12 * size / 64)
    img -= 0.12 * _blob(size, 0.73 * size, 0.42 * size, 8 * size / 64, 12 * size / 64)
    for f in findings:
        jit = rng.uniform(-2.0, 2.0, size=4) * size / 64
        _render_motif(img, f.kind, f.laterality, f.severity, jit)
    img += rng.normal(0.0, 0.015, size=(size, size))
    return np.clip(img, 0.0, 1.0)


# ---------------------------------------------------------------------------
# study and corpus generation


def _sample_findings(rng, prevalence) -> list[Finding]:
    found = []
    for kind in T.KINDS:
        p = prevalence.get(kind, 0.0)
        if rng.random() < p:
            lats = T.KIND_LATERALITY[kind]
            lat = lats[rng.integers(len(lats))] if lats else "n/a"
            sev = T.SEVERITIES[rng.integers(3)] if T.KIND_HAS_SEVERITY[kind] else "n/a"
            found.append(Finding(kind, lat, sev))
    return found


def generate_study(seed: int, spec: CorpusSpec, study_id: int = 0) -> SyntheticStudy:
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(study_id)]))
    findings = _sample_findings(rng, spec.prevalence)
    style_bits = [int(b) for b in rng.integers(0, 3, size=8)]
    ftext, itext = T.render_report([(f.kind, f.laterality, f.severity) for f in findings], style_bits)
    image = render_image(findings, rng, spec.image_size)
    labels = {k: 0 for k in T.LABEL_KINDS}
    for f in findings:
        labels[f.kind] = 1
    labels[T.NO_FINDING] = int(not findings)
    return SyntheticStudy(study_id, image, findings, ftext, itext, labels)


@dataclass
class Corpus:
    spec: CorpusSpec
    seed: int
    studies: list[SyntheticStudy]
    vocab: "Vocab"

    def __len__(self):
        return len(self.studies)

    def digest(self) -> str:
        h = hashlib.sha256()
        for s in self.studies:
            h.update(np.ascontiguousarray(s.image, dtype="<f8").tobytes())
            h.update(s.report_findings.encode())
            h.update(s.report_impression.encode())
            h.update(json.dumps(s.labels, sort_keys=True).encode())
        return h.hexdigest()


def generate_corpus(seed: int, spec: CorpusSpec) -> Corpus:
    spec.validate()
    studies = [generate_study(seed, spec, i) for i in range(spec.n_studies)]
    return Corpus(spec, seed, studies, build_vocab())


# ---------------------------------------------------------------------------
# report section selection (impression preferred)


def select_report_text(report) -> str:
    findings_text, impression = report
    if impression:
        return impression
    if findings_text:
        return findings_text
    raise ValueError("both report sections are empty")


# ---------------------------------------------------------------------------
# vocabulary and word-level tokenizer


class Vocab:
    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocab")
        for r in RESERVED:
            if r not in self.index:
                raise ValueError(f"reserved token {r} missing")

    def __len__(self):
        return len(self.tokens)

    def id(self, tok: str) -> int:
        return self.index.get(tok, self.index[UNK])

    def to_json(self) -> list[str]:
        return list(self.tokens)


def words(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def build_vocab() -> Vocab:
    seen = set()
    for text in T.all_template_texts():
        seen.update(words(text))
    return Vocab(RESERVED + sorted(seen))


def tokenize(text: str, vocab: Vocab, max_len: int | None = MAX_TEXT_LEN,
             lead: str = CLS) -> list[int]:
    """[CLS]-led id sequence, truncated to max_len (None: not truncated)."""
    ids = [vocab.id(lead)] if lead else []
    ids.extend(vocab.id(w) for w in words(text))
    return ids[:max_len]


def detokenize(ids, vocab: Vocab) -> str:
    specials = {vocab.id(r) for r in RESERVED}
    return " ".join(vocab.tokens[i] for i in ids if i not in specials)


# ---------------------------------------------------------------------------
# augmentation


def flip_image(image: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(image[:, ::-1])


def swap_laterality_words(text: str) -> str:
    toks = text.split()
    swap = {"left": "right", "right": "left"}
    return " ".join(swap.get(t, t) for t in toks)


def rotate_image(image: np.ndarray, angle_deg: float) -> np.ndarray:
    if angle_deg == 0.0:
        return image.copy()
    out = ndimage.rotate(image, angle_deg, reshape=False, order=1, mode="nearest")
    return np.clip(out, 0.0, 1.0)


def augment(image, report, rng, max_rotation_deg: float = 15.0,
            p_flip: float = 0.5, swap_text_on_flip: bool = True):
    """Random flip (with consistent laterality-word swap) plus small rotation.

    ``swap_text_on_flip=False`` reproduces image-only flipping, which corrupts
    laterality supervision and exists for comparison only.
    """
    findings_text, impression = report
    if rng.random() < p_flip:
        image = flip_image(image)
        if swap_text_on_flip:
            findings_text = swap_laterality_words(findings_text)
            impression = swap_laterality_words(impression)
    angle = rng.uniform(-max_rotation_deg, max_rotation_deg)
    image = rotate_image(image, angle)
    return image, (findings_text, impression)


# ---------------------------------------------------------------------------
# corpus on disk: JSON-lines metadata + raw image blob + manifest with digest


def save_corpus(corpus: Corpus, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    blob = b"".join(np.ascontiguousarray(s.image, dtype="<f8").tobytes() for s in corpus.studies)
    (out / "images.bin").write_bytes(blob)
    with (out / "meta.jsonl").open("w") as fh:
        for s in corpus.studies:
            fh.write(json.dumps({
                "study_id": s.study_id,
                "findings": [[f.kind, f.laterality, f.severity] for f in s.findings],
                "report_findings": s.report_findings,
                "report_impression": s.report_impression,
                "labels": s.labels,
            }, sort_keys=True) + "\n")
    manifest = {
        "digest": corpus.digest(),
        "seed": corpus.seed,
        "n_studies": len(corpus.studies),
        "spec": corpus.spec.to_json(),
        "vocab": corpus.vocab.to_json(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def load_corpus(in_dir) -> Corpus:
    src = Path(in_dir)
    manifest = json.loads((src / "manifest.json").read_text())
    spec = CorpusSpec.from_json(manifest["spec"])
    size = spec.image_size
    raw = np.frombuffer((src / "images.bin").read_bytes(), dtype="<f8")
    images = raw.reshape(-1, size, size)
    studies = []
    for line in (src / "meta.jsonl").read_text().splitlines():
        d = json.loads(line)
        sid = d["study_id"]
        studies.append(SyntheticStudy(
            sid,
            images[len(studies)].copy(),
            [Finding(*f) for f in d["findings"]],
            d["report_findings"],
            d["report_impression"],
            {k: int(v) for k, v in d["labels"].items()},
        ))
    corpus = Corpus(spec, manifest["seed"], studies, Vocab(manifest["vocab"]))
    if corpus.digest() != manifest["digest"]:
        raise ValueError("corpus digest mismatch: files were modified")
    return corpus
