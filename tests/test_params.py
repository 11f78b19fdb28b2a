import dataclasses
import json
import re
import typing
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graftkit import templates as T
from graftkit.autograd import Tensor
from graftkit.clip_stage import ClipConfig, ClipModel, PromptSet, load_clip
from graftkit.corpus import CorpusSpec
from graftkit.nn import DecoderLM, ImageEncoderConfig, LmConfig, load_lm, save_lm
from graftkit.params import ParamRegistry, decode, load_checkpoint, save_checkpoint
from graftkit.qformer import (Phase2Bridge, QFormerConfig, QFormerModel, load_bridge,
                              load_qformer, save_phase2)


def small_registry():
    reg = ParamRegistry()
    rng = np.random.default_rng(0)
    reg.param("enc.w", rng.normal(0, 1, (3, 4)))
    reg.param("enc.b", np.zeros(4))
    reg.param("lm.emb", rng.normal(0, 1, (5, 2)), frozen=True)
    return reg


def test_duplicate_name_rejected():
    reg = small_registry()
    with pytest.raises(ValueError):
        reg.param("enc.w", np.zeros(1))


def test_digest_stable_under_frozen_and_changes_on_write():
    reg = small_registry()
    d0 = reg.digest("lm.emb")
    assert d0 == reg.digest("lm.emb")
    reg["enc.w"].data += 1.0
    assert reg.digest("enc.w") != small_registry().digest("enc.w")
    assert reg.digest("lm.emb") == d0


def test_roundtrip_bytes_identical(tmp_path):
    reg = small_registry()
    p1 = tmp_path / "a.ckpt"
    save_checkpoint(reg, p1, meta={"stage": "t"})
    meta, values, frozen = load_checkpoint(p1)
    assert meta == {"stage": "t"}
    assert frozen == {"enc.w": False, "enc.b": False, "lm.emb": True}

    reg2 = ParamRegistry()
    for name, arr in values.items():
        reg2.param(name, arr, frozen=frozen[name])
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(reg2, p2, meta={"stage": "t"})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.with_suffix(".ckpt.bin").read_bytes() == p2.with_suffix(".ckpt.bin").read_bytes()


def test_truncated_blob_refused(tmp_path):
    reg = small_registry()
    p = tmp_path / "c.ckpt"
    save_checkpoint(reg, p)
    blob = p.with_suffix(".ckpt.bin")
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ValueError, match=re.escape(f"{p}: checkpoint blob digest mismatch")):
        load_checkpoint(p)


def test_edited_shape_refused_with_field_name(tmp_path):
    reg = small_registry()
    p = tmp_path / "d.ckpt"
    save_checkpoint(reg, p)
    manifest = json.loads(p.read_text())
    manifest["params"][0]["shape"] = [2, 4]
    p.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(p)


def test_load_values_shape_checked():
    reg = small_registry()
    values = reg.snapshot()
    before = reg.combined_digest()
    with pytest.raises(ValueError, match="shape mismatch for enc.b"):
        reg.load_values({**values, "enc.w": values["enc.w"] + 1.0, "enc.b": np.zeros((2, 2))})
    assert reg.combined_digest() == before  # enc.w, ahead of enc.b, is not written either
    reg.load_values({**values, "enc.b": np.ones(4)})
    assert np.all(reg["enc.b"].data == 1.0)


def test_load_values_needs_exactly_the_registered_names():
    reg = small_registry()
    before = reg.combined_digest()
    values = reg.snapshot()
    del values["enc.w"], values["lm.emb"]
    with pytest.raises(ValueError, match=r"2 missing, first 'enc\.w'$"):
        reg.load_values(values)
    values = {**reg.snapshot(), "enc.extra": np.ones(2)}
    with pytest.raises(ValueError, match=r"1 unexpected, first 'enc\.extra'$"):
        reg.load_values(values)
    del values["enc.b"]
    with pytest.raises(ValueError, match=r"1 missing, first 'enc\.b'; 1 unexpected, first 'enc\.extra'"):
        reg.load_values(values)
    assert reg.combined_digest() == before  # refused before any value is written


def test_combined_digest_covers_prefix():
    reg = small_registry()
    d = reg.combined_digest("enc.")
    reg["lm.emb"].data += 1.0
    assert reg.combined_digest("enc.") == d
    reg["enc.b"].data += 1.0
    assert reg.combined_digest("enc.") != d


def test_version_mismatch_refused(tmp_path):
    p = tmp_path / "v.ckpt"
    save_checkpoint(small_registry(), p)
    manifest = json.loads(p.read_text())
    manifest["version"] = 2
    p.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="version 2"):
        load_checkpoint(p)


@pytest.mark.parametrize("edit,match", [
    (lambda m: m["params"][1].update(offset=24), "overlaps"),
    (lambda m: m["params"][1].update(offset=40), "gap"),
    (lambda m: m["params"].pop(), "end at byte 128"),
], ids=["overlap", "gap", "short"])
def test_entries_must_tile_blob(tmp_path, edit, match):
    # entries in name order: enc.b [0, 32), enc.w [32, 128), lm.emb [128, 208)
    p = tmp_path / "t.ckpt"
    save_checkpoint(small_registry(), p)
    manifest = json.loads(p.read_text())
    edit(manifest)
    p.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: .*{match}"):
        load_checkpoint(p)


def _without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("edit,message", [
    (lambda m: [m], "the manifest is not a JSON object"),
    (lambda m: _without(m, "blob_sha256"), "the manifest has no field 'blob_sha256'"),
    (lambda m: {**m, "blob_sha256": None}, "the manifest field 'blob_sha256' is not of type str"),
    (lambda m: _without(m, "params"), "the manifest has no field 'params'"),
    (lambda m: {**m, "params": {}}, "the manifest field 'params' is not of type list"),
    (lambda m: {**m, "params": [[]]}, "the manifest field 'params' item 0 is not a JSON object"),
    (lambda m: {**m, "params": [m["params"][0], _without(m["params"][1], "shape")]},
     "the manifest field 'params' item 1 has no field 'shape'"),
    (lambda m: {**m, "params": [{**m["params"][0], "offset": "0"}]},
     "the manifest field 'params' item 0 field 'offset' is not of type int"),
    (lambda m: {**m, "params": [{**m["params"][0], "frozen": 0}]},
     "the manifest field 'params' item 0 field 'frozen' is not of type bool"),
    (lambda m: {**m, "params": [{**m["params"][0], "shape": [4.0]}]},
     "the manifest field 'params' item 0 field 'shape' item 0 is not of type int"),
    (lambda m: {**m, "meta": []}, "the manifest field 'meta' is not of type dict"),
    (lambda m: {**m, "signed": True}, "the manifest has an unknown field 'signed'"),
    (lambda m: {**m, "params": [{**m["params"][0], "dtype": "<f8"}]},
     "the manifest field 'params' item 0 has an unknown field 'dtype'"),
], ids=["manifest-list", "no-sha", "sha-null", "no-params", "params-dict", "entry-list",
        "no-shape", "offset-str", "frozen-int", "shape-floats", "meta-list", "manifest-extra",
        "entry-extra"])
def test_malformed_manifest_refused_naming_file_and_field(tmp_path, edit, message):
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_registry(), p, meta={"kind": "t"})
    p.write_text(json.dumps(edit(json.loads(p.read_text()))))
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
        load_checkpoint(p)


def test_truncated_manifest_is_refused_naming_the_file(tmp_path):
    p = tmp_path / "t.ckpt"
    save_checkpoint(small_registry(), p)
    p.write_text('{"version": 1,')
    with pytest.raises(ValueError, match=re.escape(f"{p}: Expecting property name")):
        load_checkpoint(p)


def test_negative_shape_sizes_are_refused(tmp_path):
    """(-2, -2) has the product of (4,), so only the sign gives it away."""
    p = tmp_path / "n.ckpt"
    save_checkpoint(small_registry(), p)
    manifest = json.loads(p.read_text())
    manifest["params"][0]["shape"] = [-2, -2]  # enc.b, 4 values
    p.write_text(json.dumps(manifest))
    with pytest.raises(ValueError,
                       match=re.escape("'enc.b': field 'shape' (-2, -2) inconsistent")):
        load_checkpoint(p)


def _config_without(key):
    return lambda c: {k: v for k, v in c.items() if k != key}


@pytest.mark.parametrize("loader,edit,message", [
    (load_qformer, _config_without("itc_temperature"), "has no field 'itc_temperature'"),
    (load_qformer, lambda c: {**c, "itc_temperature": "0.07"},
     "field 'itc_temperature' is not of type float"),
    (load_qformer, lambda c: {**c, "itc_temperature": 10 ** 400},
     "field 'itc_temperature' is not of type float"),
    (load_clip, lambda c: {**c, "image": 3}, "field 'image' is not a JSON object"),
    (load_clip, lambda c: {**c, "image": _config_without("patch")(c["image"])},
     "field 'image' has no field 'patch'"),
    (load_clip, lambda c: {**c, "augment": 1}, "field 'augment' is not of type bool"),
    (load_lm, lambda c: {**c, "rope": 1}, "has an unknown field 'rope'"),
    (load_lm, lambda c: {**c, "dim": "x"}, "field 'dim' is not of type int"),
    (load_lm, lambda c: {**c, "dim": 8.0}, "field 'dim' is not of type int"),
], ids=["qformer-no-temperature", "qformer-temperature-str", "qformer-temperature-huge",
        "clip-image-int", "clip-image-no-patch", "clip-augment-int", "lm-extra", "lm-dim-str",
        "lm-dim-float"])
def test_loaders_refuse_a_config_that_is_not_exactly_their_config(tmp_path, loader, edit,
                                                                   message):
    path = _saved_models(tmp_path)[loader]
    manifest = json.loads(path.read_text())
    manifest["meta"]["config"] = edit(manifest["meta"]["config"])
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(f"{path}: meta field 'config' {message}")):
        loader(path)


@pytest.mark.parametrize("loader,field,value", [
    (load_clip, "config", None),
    (load_clip, "vocab_size", "12"),
    (load_qformer, "config", []),
    (load_qformer, "seed", None),
    (load_lm, "config", None),
    (load_bridge, "hidden", 10.0),
], ids=["clip-config", "clip-vocab", "qformer-config", "qformer-seed", "lm-config",
        "bridge-hidden"])
def test_loaders_refuse_a_missing_or_mistyped_meta_field(tmp_path, loader, field, value):
    path = _saved_models(tmp_path)[loader]
    manifest = json.loads(path.read_text())
    manifest["meta"][field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(f"{path}: meta field {field!r} is not ")):
        loader(path)
    del manifest["meta"][field]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(f"{path}: meta has no field {field!r}")):
        loader(path)


@pytest.mark.parametrize("loader,message", [
    (load_clip, "not an elixr-c checkpoint"),
    (load_qformer, "not a qformer checkpoint"),
    (load_lm, "not an lm checkpoint"),
    (load_bridge, "not a bridge checkpoint"),
], ids=["clip", "qformer", "lm", "bridge"])
def test_loaders_reject_wrong_kind(tmp_path, loader, message):
    p = tmp_path / "w.ckpt"
    save_checkpoint(small_registry(), p, meta={"kind": "other"})
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}: kind='other'")):
        loader(p)


def _saved_models(tmp_path) -> dict:
    """Loader -> the path of a saved tiny model of its kind."""
    clip = ClipModel(12, ClipConfig(image=ImageEncoderConfig(patch=32, dim=8, blocks=1, heads=2),
                                    text_dim=8, text_blocks=1, text_heads=2), seed=0)
    clip.save(tmp_path / "clip.ckpt")
    qf = QFormerModel(QFormerConfig(n_queries=2, dim=8, blocks=1, heads=2, proj_dim=4,
                                    grid_dim=8, text_max_len=8, vocab_size=12), seed=0)
    reg = ParamRegistry()
    save_phase2(qf, Phase2Bridge(reg, 8, 6, 10, np.random.default_rng(2)), reg,
                tmp_path / "qf.ckpt", tmp_path / "bridge.ckpt", lm_digest="d")
    lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=12, dim=8, blocks=1, heads=2, max_len=16),
                   np.random.default_rng(1))
    save_lm(lm, tmp_path / "lm.ckpt")
    return {load_clip: tmp_path / "clip.ckpt", load_qformer: tmp_path / "qf.ckpt",
            load_lm: tmp_path / "lm.ckpt", load_bridge: tmp_path / "bridge.ckpt"}


@pytest.mark.parametrize("loader,missing,extra", [
    (load_clip, "txt_proj.w", "clip.extra"),
    (load_qformer, "qf.itm_head.w", "qf.extra"),
    (load_lm, "lm.head.w", "lm.extra"),
    (load_bridge, "bridge.fc2.w", "bridge.extra"),
], ids=["clip", "qformer", "lm", "bridge"])
@pytest.mark.parametrize("change", ["missing", "unexpected"])
def test_loaders_reject_a_missing_or_an_unexpected_parameter(tmp_path, loader, missing, extra,
                                                             change):
    """A consistent checkpoint (digest and byte extents agree) that lacks one
    of the model's parameters, or holds one more, is refused by name: the
    model would otherwise keep a random initialisation of the missing one."""
    path = _saved_models(tmp_path)[loader]
    loader(path)  # the saved model loads
    meta, values, frozen = load_checkpoint(path)
    if change == "missing":
        name = missing
        del values[name]
    else:
        name = extra
        values[name], frozen[name] = np.ones(3), False
    reg = ParamRegistry()
    for n in sorted(values):
        reg.param(n, values[n], frozen=frozen[n])
    save_checkpoint(reg, path, meta=meta)
    with pytest.raises(ValueError, match=rf"1 {change}, first '{name}'$"):
        loader(path)


def test_load_lm_restores_values_and_frozen_flags(tmp_path):
    reg = ParamRegistry()
    lm = DecoderLM(reg, LmConfig(vocab_size=12, dim=8, blocks=1, heads=2, max_len=16),
                   np.random.default_rng(1))
    reg["lm.head.b"].data += 0.5  # differs from a fresh init
    lm.freeze()
    p = tmp_path / "lm.ckpt"
    save_lm(lm, p)
    loaded = load_lm(p)
    assert loaded.cfg == lm.cfg
    assert loaded.digest() == lm.digest()
    assert loaded.frozen


def test_load_bridge_restores_values_and_frozen_flags(tmp_path):
    qf = QFormerModel(QFormerConfig(n_queries=2, dim=8, blocks=1, heads=2, proj_dim=4,
                                    grid_dim=8, text_max_len=8, vocab_size=12), seed=0)
    reg = ParamRegistry()
    bridge = Phase2Bridge(reg, 8, 6, 10, np.random.default_rng(2))
    bridge.fc2.b.data += 0.25
    reg["bridge.fc1.w"].freeze()
    save_phase2(qf, bridge, reg, tmp_path / "qf.ckpt", tmp_path / "br.ckpt", lm_digest="d")
    loaded_reg, loaded, meta = load_bridge(tmp_path / "br.ckpt")
    assert meta["lm_digest"] == "d"
    assert loaded_reg.combined_digest() == reg.combined_digest()
    assert {p.name: p.frozen for p in loaded_reg} == {p.name: p.frozen for p in reg}
    x = Tensor(np.random.default_rng(3).normal(0, 1, (2, 8)))
    assert np.array_equal(loaded(x).data, bridge(x).data)


# --------------------------------------------------------------------------
# decode: the dataclasses stored as JSON read back, and a bad field is named


def valid_values(kind):
    """A strategy of valid ``kind`` values, for the field types ``decode``
    reads; ``CorpusSpec`` and ``PromptSet`` also pass their ``validate``."""
    if kind is CorpusSpec:
        return st.builds(CorpusSpec, n_studies=st.integers(1, 10**6),
                         prevalence=st.dictionaries(st.sampled_from(T.KINDS), st.floats(0, 1)),
                         image_size=st.integers(),
                         separable=st.lists(st.sampled_from(T.KINDS), max_size=3).map(tuple))
    if kind is PromptSet:
        prompts = st.lists(st.text(max_size=12), min_size=1, max_size=3)
        return st.builds(PromptSet, st.text(max_size=12), prompts, prompts)
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        return st.builds(kind, **{f.name: valid_values(hints[f.name])
                                  for f in dataclasses.fields(kind)})
    return {bool: st.booleans(), int: st.integers(), str: st.text(max_size=12),
            float: st.floats(allow_nan=False, allow_infinity=False)}[kind]


STORED = st.sampled_from([ClipConfig, QFormerConfig, LmConfig, CorpusSpec, PromptSet]).flatmap(
    valid_values)


@settings(max_examples=150, deadline=None)
@given(STORED)
def test_decode_reads_back_what_asdict_wrote(x):
    assert decode("x.json", "the record", json.loads(json.dumps(asdict(x))), type(x)) == x


@settings(max_examples=150, deadline=None)
@given(STORED, st.data())
def test_decode_names_a_missing_mistyped_or_unknown_field(x, data):
    kind, record = type(x), json.loads(json.dumps(asdict(x)))
    name = data.draw(st.sampled_from(sorted(record)))
    unknown = data.draw(st.text(min_size=1, max_size=8).filter(
        lambda k: k not in record and k not in getattr(kind, "RETIRED_FIELDS", ())))
    for edited, message in [
            ({k: v for k, v in record.items() if k != name}, f"has no field {name!r}"),
            ({**record, name: None}, f"field {name!r} is not "),
            ({**record, unknown: 0}, f"has an unknown field {unknown!r}")]:
        with pytest.raises(ValueError, match=re.escape(f"x.json: the record {message}")):
            decode("x.json", "the record", edited, kind)


# --------------------------------------------------------------------------
# parameter versions and the registry memo


def test_write_bumps_the_version_and_writes_what_the_in_place_ops_write():
    rng = np.random.default_rng(3)
    a, d = rng.normal(0, 1, (3, 4)), rng.normal(0, 1e-3, (3, 4))
    p = ParamRegistry().param("w", np.zeros((3, 4)))
    assert p.version == 0
    p.write(a)
    assert p.version == 1 and p.data.tobytes() == a.tobytes()
    p.write(d, np.subtract)
    expected = a.copy()
    expected -= d
    assert p.version == 2 and p.data.tobytes() == expected.tobytes()


def test_load_values_bumps_every_version_frozen_ones_too():
    reg = small_registry()
    reg.load_values(reg.snapshot())
    assert reg.versions() == (1, 1, 1)
    assert reg.versions("lm.") == (1,)


def test_memo_computes_once_per_key_and_returns_a_read_only_array():
    reg = small_registry()
    calls = []

    def compute(scale):
        calls.append(scale)
        return reg["enc.w"].data * scale

    first = reg.memo(("x", 2), lambda: compute(2))
    assert reg.memo(("x", 2), lambda: compute(2)) is first
    assert calls == [2] and not first.flags.writeable
    assert first.tobytes() == (reg["enc.w"].data * 2).tobytes()
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    reg.memo(("x", 3), lambda: compute(3))
    assert calls == [2, 3]


def test_memo_never_outlives_a_write_to_any_parameter():
    reg = small_registry()
    calls = []

    def compute():
        calls.append(1)
        return reg["enc.w"].data.sum(axis=0)

    reg.memo("k", compute)
    reg["lm.emb"].write(reg["lm.emb"].data)  # frozen, and not read by compute: still a write
    reg.memo("k", compute)
    assert len(calls) == 2
    reg["enc.w"].write(np.ones((3, 4)), np.subtract)
    fresh = reg.memo("k", compute)
    assert len(calls) == 3 and fresh.tobytes() == reg["enc.w"].data.sum(axis=0).tobytes()


def test_memo_keeps_nothing_computed_while_a_parameter_is_written():
    reg = small_registry()
    calls = []

    def compute_and_write():
        calls.append(1)
        value = reg["enc.b"].data + 1.0
        reg["enc.b"].write(value)
        return value

    reg.memo("k", compute_and_write)
    reg.memo("k", compute_and_write)
    assert len(calls) == 2
